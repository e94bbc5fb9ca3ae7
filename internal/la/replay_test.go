package la

import (
	"math"
	"testing"
)

// replayValues are the special entries the fuzz decoder draws from:
// exact zeros of both signs, magnitude ties, values whose products
// overflow or underflow, and non-finite values.
var replayValues = [...]float64{
	0, math.Copysign(0, -1), 1, -1, 2, -2, 1, -1,
	1e-300, -1e300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), 0.5, -0.5,
}

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// value decodes one entry: mostly a small signed value, sometimes one
// of replayValues.
func (r *byteReader) value() float64 {
	b := r.next()
	if b >= 0xf0 {
		return replayValues[b&0x0f]
	}
	return float64(int8(b)) / 8
}

// mnaPattern decodes an MNA-shaped structure: nodes [0, nv) joined by
// two- and three-terminal device blocks, and one branch row per voltage
// source in [nv, n) coupling its row and column to one or two nodes,
// with a structurally zero diagonal.
func mnaPattern(r *byteReader, n, nv int) []int32 {
	var pat []int32
	add := func(i, j int) { pat = append(pat, int32(i*n+j)) }
	for d := int(r.next() % 8); d >= 0; d-- {
		nodes := []int{int(r.next()) % nv, int(r.next()) % nv}
		if r.next()&1 == 1 {
			nodes = append(nodes, int(r.next())%nv)
		}
		for _, i := range nodes {
			for _, j := range nodes {
				add(i, j)
			}
		}
	}
	for br := nv; br < n; br++ {
		for _, node := range []int{int(r.next()) % nv, int(r.next()) % nv} {
			add(node, br)
			add(br, node)
		}
	}
	// A few entries anywhere, so the fuzzer also reaches shapes no
	// stamp produces.
	for e := int(r.next() % 4); e > 0; e-- {
		add(int(r.next())%n, int(r.next())%n)
	}
	return pat
}

// FuzzDenseReplay drives one LU with a pattern (learning and replaying
// pivot schedules) and one without through the same stream of systems
// and requires the same solution bits and the same error on every
// call. Consecutive systems flip signs and rescale entries, which
// switches the pivot sequence between calls; special values cover
// zeros, ties, overflow and non-finite entries.
func FuzzDenseReplay(f *testing.F) {
	f.Add([]byte{8, 5, 3, 0, 1, 1, 3, 1, 4, 1, 0, 0, 1, 2, 1, 3, 0, 10, 20, 30, 40, 50, 60, 70, 80})
	f.Add([]byte{8, 5, 7, 0, 3, 1, 1, 3, 1, 1, 2, 4, 1, 4, 2, 3, 0, 3, 1, 0, 4, 2, 1, 0, 5, 0, 0, 1, 1, 2, 2,
		4, 3, 9, 8, 250, 7, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240, 241, 253, 252, 251, 250})
	f.Add([]byte{6, 2, 5, 9, 1, 1, 2, 9, 0, 0, 1, 5, 6, 3, 0, 200, 100, 5, 243, 244, 245, 246, 247, 248, 249})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		n := 1 + int(r.next()%10)
		nv := 1 + int(r.next())%n
		pat := mnaPattern(&r, n, nv)
		var replay, plain LU
		replay.SetPattern(n, pat)
		vals := make([]float64, len(pat))
		for i := range vals {
			vals[i] = r.value()
		}
		b := make([]float64, n)
		for call := 0; call < 2+int(r.next()%6); call++ {
			if call > 0 {
				// Perturb the previous system: flip signs, rescale,
				// or redraw single entries.
				for i := range vals {
					switch op := r.next(); {
					case op < 64:
					case op < 128:
						vals[i] = -vals[i]
					case op < 192:
						vals[i] *= float64(op%5) + 0.5
					default:
						vals[i] = r.value()
					}
				}
			}
			for i := range b {
				b[i] = r.value()
			}
			a1, a2 := NewMatrix(n, n), NewMatrix(n, n)
			for i, o := range pat {
				a1.Data[o] += vals[i]
			}
			copy(a2.Data, a1.Data)
			x1, x2 := make([]float64, n), make([]float64, n)
			err1 := replay.FactorSolveInPlace(a1, x1, b)
			err2 := plain.FactorSolveInPlace(a2, x2, b)
			if err1 != err2 {
				t.Fatalf("call %d: replay error %v, plain error %v", call, err1, err2)
			}
			for i := range x1 {
				if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
					t.Fatalf("call %d: x[%d] = %v (replay) vs %v (plain); stats %+v",
						call, i, x1[i], x2[i], replay.ReplayStats())
				}
			}
		}
	})
}

// mnaSystem is a 4-node, 2-source MNA system (source branch rows with
// zero diagonals) whose pivot sequence depends on the node
// conductances g.
func mnaSystem(g [4]float64) (*Matrix, []float64) {
	const n = 6
	a := NewMatrix(n, n)
	for i := 0; i < 4; i++ {
		a.Add(i, i, g[i])
		if i > 0 {
			a.Add(i, i-1, -g[i]/2)
			a.Add(i-1, i, -g[i]/3)
		}
	}
	a.Set(0, 4, 1)
	a.Set(4, 0, 1)
	a.Set(1, 5, 1)
	a.Set(5, 1, 1)
	return a, []float64{1e-3, 0, 2e-3, 0, 0.8, 0.4}
}

func mnaPatternOf(a *Matrix) []int32 {
	var pat []int32
	for o, v := range a.Data {
		if v != 0 {
			pat = append(pat, int32(o))
		}
	}
	return pat
}

// TestReplayLearnsAndSwitches: a slowly drifting stream alternating
// between two pivot sequences learns each once, replays the rest,
// resumes the plain kernel at every switch and stays bit-identical
// throughout.
func TestReplayLearnsAndSwitches(t *testing.T) {
	calm := [4]float64{4, 3, 2, 5}
	flipped := [4]float64{1, 3, 9, 5}
	a0, _ := mnaSystem(calm)
	var replay, plain LU
	replay.SetPattern(6, mnaPatternOf(a0))
	for call := 0; call < 40; call++ {
		g := calm
		if call/10%2 == 1 {
			g = flipped
		}
		g[0] *= 1 + float64(call)/1024
		a1, b := mnaSystem(g)
		a2 := a1.Clone()
		x1, x2 := make([]float64, 6), make([]float64, 6)
		if err := replay.FactorSolveInPlace(a1, x1, b); err != nil {
			t.Fatal(err)
		}
		if err := plain.FactorSolveInPlace(a2, x2, b); err != nil {
			t.Fatal(err)
		}
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("call %d: x[%d] = %v, want %v", call, i, x1[i], x2[i])
			}
		}
	}
	got := replay.ReplayStats()
	want := ReplayStats{Replayed: 36, Resumed: 3, Learned: 2}
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// TestReplayHandsOverNonFinite: a NaN or an infinite right-hand side
// entry reaches the plain kernel's results, not the replay's skips.
func TestReplayHandsOverNonFinite(t *testing.T) {
	a0, _ := mnaSystem([4]float64{4, 3, 2, 5})
	var replay, plain LU
	replay.SetPattern(6, mnaPatternOf(a0))
	for _, bad := range []float64{0, math.NaN(), math.Inf(1), math.Copysign(0, -1), 1e308} {
		for pos := 0; pos < 6; pos++ {
			a1, b := mnaSystem([4]float64{4, 3, 2, 5})
			b[pos] = bad
			a2 := a1.Clone()
			x1, x2 := make([]float64, 6), make([]float64, 6)
			err1 := replay.FactorSolveInPlace(a1, x1, b)
			err2 := plain.FactorSolveInPlace(a2, x2, b)
			if err1 != err2 {
				t.Fatalf("b[%d] = %v: error %v, want %v", pos, bad, err1, err2)
			}
			for i := range x1 {
				if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
					t.Fatalf("b[%d] = %v: x[%d] = %v, want %v", pos, bad, i, x1[i], x2[i])
				}
			}
		}
	}
	if replay.ReplayStats().Replayed == 0 {
		t.Error("no call was replayed")
	}
}

// TestReplaySingular: a system that turns singular on a learned
// schedule reports ErrSingular exactly like the plain kernel.
func TestReplaySingular(t *testing.T) {
	a0, b := mnaSystem([4]float64{4, 3, 2, 5})
	var f LU
	f.SetPattern(6, mnaPatternOf(a0))
	x := make([]float64, 6)
	if err := f.FactorSolveInPlace(a0, x, b); err != nil {
		t.Fatal(err)
	}
	a, _ := mnaSystem([4]float64{4, 3, 2, 5})
	for j := 0; j < 6; j++ {
		a.Set(3, j, 0)
	}
	if err := f.FactorSolveInPlace(a, x, b); err != ErrSingular {
		t.Fatalf("error = %v, want ErrSingular", err)
	}
	if got := f.ReplayStats(); got.Resumed != 1 || got.Learned != 1 {
		t.Errorf("stats = %+v, want one resume and one learned sequence", got)
	}
}
