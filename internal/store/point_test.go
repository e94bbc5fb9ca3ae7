package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
)

var updatePoints = flag.Bool("update", false, "regenerate testdata/points.golden")

func testPointKey() eval.ParamKey {
	return eval.ParamKey{Gate: "nor2", Bench: nor.DefaultParams(), ExpDMin: 20e-12}
}

// testFitted is a synthetic prepared point with distinct, exactly
// representable-in-binary-only values and a negative zero, so a
// round trip that loses a bit shows.
func testFitted() gate.Fitted {
	hm := hybrid.TableI()
	hm0 := hm.WithoutDMin()
	hm0.DMin = math.Copysign(0, -1)
	return gate.Fitted{
		Meas: gate.Measurement{
			Pair: hybrid.Characteristic{FallMinusInf: 0.1e-10, FallZero: 0.2e-10, FallPlusInf: 0.3e-10,
				RiseMinusInf: 0.4e-10, RiseZero: 0.5e-10, RisePlusInf: 0.6e-10},
			Arcs: inertial.Arcs{{Fall: 1.1e-11, Rise: 1.2e-11}, {Fall: 1.3e-11, Rise: 1.4e-11}},
		},
		HM:       hm,
		HMNoDMin: hm0,
	}
}

// bitsEqual reports whether a and b hold the same values with every
// float64 compared by math.Float64bits, so a negative zero or a
// one-ULP drift counts as a difference.
func bitsEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		if a.Type() != b.Type() {
			return false
		}
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

func TestRoundTripPoint(t *testing.T) {
	s := openTest(t)
	k := testPointKey()
	want := testFitted()
	if _, ok, err := s.LoadPoint(k); ok || err != nil {
		t.Fatalf("empty store: LoadPoint = %v, %v; want miss", ok, err)
	}
	if err := s.SavePoint(k, want); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	got, ok, err := s.LoadPoint(k)
	if err != nil || !ok {
		t.Fatalf("LoadPoint = %v, %v; want hit", ok, err)
	}
	if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("round trip changed the point:\n got %+v\nwant %+v", got, want)
	}
	// The point never answers a golden lookup, and a different expDMin
	// or gate addresses a different point.
	if _, ok, _ := s.Load(eval.GoldenKey{Gate: k.Gate, Bench: k.Bench}); ok {
		t.Error("trace lookup served by a point entry")
	}
	for _, other := range []eval.ParamKey{
		{Gate: "nand2", Bench: k.Bench, ExpDMin: k.ExpDMin},
		{Gate: k.Gate, Bench: k.Bench, ExpDMin: math.Nextafter(k.ExpDMin, 1)},
	} {
		if _, ok, _ := s.LoadPoint(other); ok {
			t.Errorf("%+v served by another key's point", other)
		}
	}
}

// prepareVia runs one operating-point lookup for g at p on a fresh
// ParamCache over s — a process start — and drains the write-behind.
func prepareVia(t *testing.T, s *Store, g gate.Gate, p nor.Params) (*eval.OperatingPoint, eval.ParamStats) {
	t.Helper()
	c := eval.NewParamCache()
	c.SetStore(s)
	op, err := c.OperatingPoint(context.Background(), g, p, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return op, c.Stats()
}

// TestPointFailsClosed: a prepared point served from disk assembles a
// model set bit-identical to the freshly prepared one, and a truncated,
// corrupt, wrong-kind or non-finite entry is a miss — the point is
// measured and fitted again and the rewrite repairs the entry.
func TestPointFailsClosed(t *testing.T) {
	s := openTest(t)
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	fresh, st := prepareVia(t, s, gate.NOR2, p)
	if st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("cold stats %+v, want 1 miss and no disk hit", st)
	}
	files := objectFiles(t, s)
	if len(files) != 1 {
		t.Fatalf("%d object files, want the one point", len(files))
	}
	warm, st := prepareVia(t, s, gate.NOR2, p)
	if st.DiskHits != 1 {
		t.Fatalf("warm stats %+v, want a disk hit", st)
	}
	if !bitsEqual(reflect.ValueOf(warm.Models), reflect.ValueOf(fresh.Models)) {
		t.Fatalf("loaded point's models differ from the fresh ones:\n got %+v\nwant %+v", warm.Models, fresh.Models)
	}
	orig, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	key := pointKeyString(eval.ParamKey{Gate: "nor2", Bench: p, ExpDMin: 20e-12})
	nanPoint := testFitted()
	nanPoint.HM.R2 = math.NaN()
	negArc := testFitted()
	negArc.Meas.Arcs[1].Rise = -1e-12
	var tr bytes.Buffer
	encodeTrace(&tr, testTrace())
	flipped := append([]byte(nil), orig...)
	flipped[len(flipped)/2] ^= 0x10
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"truncated", orig[:len(orig)-9]},
		{"flipped byte", flipped},
		{"wrong kind", encodeObject(kindTrace, key, tr.Bytes())},
		{"non-finite fit", encodeObject(kindPoint, key, encodePoint(nanPoint))},
		{"negative arc", encodeObject(kindPoint, key, encodePoint(negArc))},
	} {
		if err := os.WriteFile(files[0], c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		op, st := prepareVia(t, s, gate.NOR2, p)
		if st.DiskHits != 0 {
			t.Errorf("%s: served from disk (stats %+v)", c.name, st)
		}
		if !bitsEqual(reflect.ValueOf(op.Models), reflect.ValueOf(fresh.Models)) {
			t.Errorf("%s: recomputed models differ from the fresh ones", c.name)
		}
		if w := s.Stats().Writes - before.Writes; w != 1 {
			t.Errorf("%s: %d writes, want the repairing one", c.name, w)
		}
		if got, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(got, orig) {
			t.Errorf("%s: entry not repaired (err %v)", c.name, err)
		}
	}
	if st := s.Stats(); st.Corrupt < 3 {
		t.Errorf("corrupt frames not counted: %+v", st)
	}
}

const pointsGolden = "testdata/points.golden"

// TestPointEncodingGolden pins the exact bytes of the nor2, nand2 and
// nor3 operating points at the calibrated bench. A change here means
// the measure-and-fit chain now computes different numbers for the
// same key, and stores written before it would serve stale fits.
func TestPointEncodingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("analog characteristic measurement in -short mode")
	}
	var got bytes.Buffer
	for _, name := range []string{"nor2", "nand2", "nor3"} {
		g, err := gate.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		p := nor.DefaultParams()
		b, err := g.NewBench(p)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := b.Measure()
		if err != nil {
			t.Fatal(err)
		}
		f, err := gate.Fit(g, meas, p.Supply)
		if err != nil {
			t.Fatal(err)
		}
		key := pointKeyString(eval.ParamKey{Gate: name, Bench: p, ExpDMin: 20e-12})
		sum := sha256.Sum256(encodeObject(kindPoint, key, encodePoint(f)))
		fmt.Fprintf(&got, "%s %s\n", name, hex.EncodeToString(sum[:]))
	}
	if *updatePoints {
		if err := os.MkdirAll(filepath.Dir(pointsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pointsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pointsGolden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/store -run TestPointEncodingGolden -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("encoded operating points changed:\n got:\n%swant:\n%s"+
			"bump prepVersion in store.go so existing stores miss instead of serving stale fits, "+
			"then regenerate with go test ./internal/store -run TestPointEncodingGolden -update", got.String(), want)
	}
}

// FuzzDecodeObject feeds arbitrary bytes to the object frame and to the
// trace, set and operating-point payload decoders. Nothing may panic,
// the frame must reject anything that is not a verified object of the
// asked kind and key, and a payload that decodes must survive a
// re-encode (a point payload has one canonical encoding, so it must
// re-encode to the same bytes).
func FuzzDecodeObject(f *testing.F) {
	tkey := keyString(kindTrace, testKey(1))
	skey := keyString(kindSet, testKey(1))
	pkey := pointKeyString(testPointKey())
	var tr bytes.Buffer
	encodeTrace(&tr, testTrace())
	f.Add(encodeObject(kindTrace, tkey, tr.Bytes()))
	f.Add(tr.Bytes())
	set := encodeSet(testSet())
	f.Add(encodeObject(kindSet, skey, set))
	f.Add(set)
	pt := encodePoint(testFitted())
	f.Add(encodeObject(kindPoint, pkey, pt))
	f.Add(pt)
	f.Add(pt[:len(pt)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []struct {
			kind byte
			key  string
		}{{kindTrace, tkey}, {kindSet, skey}, {kindPoint, pkey}} {
			payload, err := decodeObject(data, c.kind, c.key)
			if err == nil && !bytes.Equal(encodeObject(c.kind, c.key, payload), data) {
				t.Fatalf("kind %d: accepted a frame that does not re-encode to itself", c.kind)
			}
		}
		if got, err := decodeTracePayload(data); err == nil {
			var b bytes.Buffer
			encodeTrace(&b, got)
			again, err := decodeTracePayload(b.Bytes())
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("trace payload does not survive a re-encode: %v", err)
			}
		}
		if got, err := decodeSetPayload(data); err == nil {
			again, err := decodeSetPayload(encodeSet(got))
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("set payload does not survive a re-encode: %v", err)
			}
		}
		if got, err := decodePointPayload(data); err == nil && !bytes.Equal(encodePoint(got), data) {
			t.Fatalf("point payload does not re-encode to itself")
		}
	})
}
