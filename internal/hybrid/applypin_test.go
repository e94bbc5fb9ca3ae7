package hybrid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/trace"
)

// pinStimulus draws k random input traces of m edges each. A third of
// the gaps are shorter than the pure delay dmin, a third shorter than a
// gate delay (glitches the channel must filter or pass), and the rest
// long enough for the output to settle.
func pinStimulus(rng *rand.Rand, k, m int, dmin float64) []trace.Trace {
	out := make([]trace.Trace, k)
	for i := range out {
		initial := rng.Intn(2) == 1
		times := make([]float64, m)
		tm := 0.0
		for j := range times {
			switch rng.Intn(3) {
			case 0:
				tm += rng.Float64() * dmin
			case 1:
				tm += rng.Float64() * 40e-12
			default:
				tm += 50e-12 + rng.Float64()*300e-12
			}
			times[j] = tm
		}
		out[i] = mkTrace(initial, times...)
	}
	return out
}

// pinFloat writes the raw bits of x.
func pinFloat(h hash.Hash, x float64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
}

// pinTrace writes a trace's initial value, event count, and every
// event's raw time bits and value.
func pinTrace(h hash.Hash, tr trace.Trace) {
	b := []byte{0}
	if tr.Initial {
		b[0] = 1
	}
	h.Write(binary.LittleEndian.AppendUint64(b, uint64(len(tr.Events))))
	for _, e := range tr.Events {
		pinFloat(h, e.Time)
		if e.Value {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

// TestApplyPins pins model application at full precision: the SHA-256
// of the raw float64 bits of every output event of ApplyNOR, ApplyNAND
// and ApplyGate (the NOR3 extension of Table I) over seeded random
// stimuli, and of the closed-form delay queries at the characteristic
// separations. The fig7 golden files print aggregated areas, so this is
// the test that sees a one-ulp change in an applied model. A refactor
// that claims bit-identity must leave every digest as it is; never
// regenerate one to make a change pass.
func TestApplyPins(t *testing.T) {
	p := TableI()
	nand := NANDFromDual(p)
	nor3 := NOR3FromNOR2(p)
	const until = 20e-9
	pins := []struct {
		name  string
		sha   string
		write func(h hash.Hash)
	}{
		{"ApplyNOR", "c9171f141d8776f2648914532cb095035691ba7c2ba49fca7c3ff526ba082d5d", func(h hash.Hash) {
			rng := rand.New(rand.NewSource(1))
			for range 40 {
				in := pinStimulus(rng, 2, 40, p.DMin)
				for _, vn0 := range []float64{0, p.Supply.VDD} {
					out, err := ApplyNOR(p, in[0], in[1], until, vn0)
					if err != nil {
						t.Fatal(err)
					}
					pinTrace(h, out)
				}
			}
		}},
		{"ApplyNAND", "279c90a5bef73b41f4d0f190bb2627547614a3378a2bb995d43edfc8a35a7302", func(h hash.Hash) {
			rng := rand.New(rand.NewSource(2))
			for range 40 {
				in := pinStimulus(rng, 2, 40, nand.DMin)
				for _, vm0 := range []float64{0, nand.Supply.VDD} {
					out, err := ApplyNAND(nand, in[0], in[1], until, vm0)
					if err != nil {
						t.Fatal(err)
					}
					pinTrace(h, out)
				}
			}
		}},
		{"ApplyGate nor3", "00fb3ec6886c22d6e92c5ed47dc97296143ab3daeba3a7263b63e1635fa70d79", func(h hash.Hash) {
			rng := rand.New(rand.NewSource(3))
			g := nor3.Gate()
			for range 40 {
				in := pinStimulus(rng, 3, 40, g.DMin)
				for _, fill := range []float64{0, g.Supply.VDD} {
					out, err := ApplyGate(g, in, until, fill)
					if err != nil {
						t.Fatal(err)
					}
					pinTrace(h, out)
				}
			}
		}},
		{"delay queries", "9b38dee2a345a1d8ee57b337b68feae1711e7047c4269c908b74da79a09751f6", func(h hash.Hash) {
			for _, d := range []float64{-SISFar, 0, SISFar} {
				fall, err := p.FallingDelay(d)
				if err != nil {
					t.Fatal(err)
				}
				pinFloat(h, fall)
				for _, vn := range []VNInitial{VNGround, VNHalf, VNSupply} {
					rise, err := p.RisingDelay(d, vn)
					if err != nil {
						t.Fatal(err)
					}
					pinFloat(h, rise)
				}
			}
			c, err := nor3.Characteristic3()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []float64{c.FallAllZero, c.FallTwoZero, c.FallSIS, c.RiseAllZero, c.RiseSIS, c.RiseWorstSep} {
				pinFloat(h, v)
			}
		}},
	}
	for _, pin := range pins {
		h := sha256.New()
		pin.write(h)
		if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha {
			t.Errorf("%s: SHA-256 %s, pinned %s", pin.name, got, pin.sha)
		}
	}
}
