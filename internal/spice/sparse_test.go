package spice

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"hybriddelay/internal/la/sparse"
	"hybriddelay/internal/waveform"
)

func TestParseSolverMode(t *testing.T) {
	cases := []struct {
		in   string
		want SolverMode
		err  bool
	}{
		{"", DenseExact, false},
		{"dense", DenseExact, false},
		{"dense-exact", DenseExact, false},
		{"sparse", SparseFast, false},
		{"sparse-fast", SparseFast, false},
		{"turbo", DenseExact, true},
	}
	for _, c := range cases {
		got, err := ParseSolverMode(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSolverMode(%q) = (%v, %v), want (%v, err=%v)", c.in, got, err, c.want, c.err)
		}
	}
	if DenseExact.String() != "dense-exact" || SparseFast.String() != "sparse-fast" {
		t.Errorf("String(): %q, %q", DenseExact.String(), SparseFast.String())
	}
	if s := SolverMode(9).String(); s != "solver-mode(9)" {
		t.Errorf("unknown mode String() = %q", s)
	}
}

// TestMOSFETSplitStampMatchesStamp: the sparse solver's split of a
// MOSFET stamp, its channel from the bank followed by stampLinear, must
// accumulate bit-exactly what Stamp accumulates — that equality is
// what keeps the bank on the dense path's channel law and parameters.
func TestMOSFETSplitStampMatchesStamp(t *testing.T) {
	c, _ := inverterCircuit()
	s, err := NewSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	s.mode = SparseFast
	s.ensure()
	n := c.unknowns()
	for i := 0; i < n; i++ {
		s.ctx.V[i] = 0.1 * float64(i+1)
	}
	ctx := &s.ctx
	ctx.Time, ctx.Dt, ctx.Method, ctx.DC = 1e-9, 1e-12, Trapezoidal, false
	s.freezeLinear()
	stampAll := func(split bool) ([]float64, []float64) {
		ctx.capFresh = true
		clear(ctx.g)
		clear(ctx.rhs)
		k := 0
		for _, d := range c.devices {
			m, ok := d.(*MOSFET)
			if ok && split {
				s.sp.channels[k].stamp(ctx.g, ctx.rhs, ctx.x)
				m.stampLinear(ctx)
				k++
			} else {
				d.Stamp(ctx)
			}
		}
		g := append([]float64(nil), ctx.g...)
		rhs := append([]float64(nil), ctx.RHS...)
		return g, rhs
	}
	gWant, rhsWant := stampAll(false)
	gGot, rhsGot := stampAll(true)
	for i := range gWant {
		if gGot[i] != gWant[i] {
			t.Fatalf("G[%d] = %v via split, %v via Stamp", i, gGot[i], gWant[i])
		}
	}
	for i := range rhsWant {
		if rhsGot[i] != rhsWant[i] {
			t.Fatalf("RHS[%d] = %v via split, %v via Stamp", i, rhsGot[i], rhsWant[i])
		}
	}
}

// runBothModes runs the same transient twice on fresh circuits, once
// per solver mode, and returns the results.
func runBothModes(t *testing.T, build func() (*Circuit, NodeID), opt TransientOptions) (dense, sparse *TransientResult, out NodeID, st SolverStats) {
	t.Helper()
	cd, outD := build()
	rd, err := Transient(cd, opt)
	if err != nil {
		t.Fatalf("dense transient: %v", err)
	}
	cs, outS := build()
	if outS != outD {
		t.Fatal("build is not deterministic")
	}
	sv, err := NewSolver(cs)
	if err != nil {
		t.Fatal(err)
	}
	opt.Solver = SparseFast
	rs, err := sv.Transient(opt)
	if err != nil {
		t.Fatalf("sparse transient: %v", err)
	}
	return rd, rs, outD, sv.Stats()
}

// maxWaveformDeviation samples both runs' waveforms for node n on a
// uniform grid and returns the largest voltage difference.
func maxWaveformDeviation(t *testing.T, a, b *TransientResult, n NodeID, t0, t1 float64) float64 {
	t.Helper()
	wa, err := a.Waveform(n)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.Waveform(n)
	if err != nil {
		t.Fatal(err)
	}
	maxDev := 0.0
	const samples = 400
	for i := 0; i <= samples; i++ {
		tt := t0 + (t1-t0)*float64(i)/samples
		if d := math.Abs(wa.At(tt) - wb.At(tt)); d > maxDev {
			maxDev = d
		}
	}
	return maxDev
}

// TestSparseTransientMatchesDense: the sparse mode must reproduce the
// dense inverter transient to far better than solver tolerance, while
// actually exercising the sparse kernel and the frozen linear base.
func TestSparseTransientMatchesDense(t *testing.T) {
	opt := inverterOptions()
	dense, sparse, out, st := runBothModes(t, inverterCircuit, opt)
	if dev := maxWaveformDeviation(t, dense, sparse, out, opt.TStart, opt.TStop); dev > 1e-6 {
		t.Fatalf("output deviates by %g V between modes", dev)
	}
	if st.SparseFactorizations == 0 {
		t.Fatal("sparse mode never used the sparse kernel")
	}
	if st.LinearReuses == 0 {
		t.Fatal("sparse mode never reused the frozen linear base")
	}
	if st.SparseFallbacks != 0 {
		t.Fatalf("unexpected sparse fallbacks: %d", st.SparseFallbacks)
	}
	if st.Factorizations < st.SparseFactorizations {
		t.Fatalf("counter inconsistency: %d total < %d sparse", st.Factorizations, st.SparseFactorizations)
	}
}

// TestSparseRCMatchesDense covers the wholly linear partition: with no
// nonlinear devices every iteration solves the frozen base directly.
func TestSparseRCMatchesDense(t *testing.T) {
	build := func() (*Circuit, NodeID) {
		c := NewCircuit()
		in := c.Node("in")
		mid := c.Node("mid")
		out := c.Node("out")
		c.AddVSource("V1", in, Ground, waveform.RaisedCosineEdge(1e-9, 1e-9, 0, 1))
		c.AddResistor("R1", in, mid, 1e3)
		c.AddCapacitor("C1", mid, Ground, 1e-12)
		c.AddResistor("R2", mid, out, 2e3)
		c.AddCapacitor("C2", out, Ground, 0.5e-12)
		return c, out
	}
	opt := TransientOptions{
		TStart: 0, TStop: 8e-9,
		MaxStep:     50e-12,
		Breakpoints: []float64{1e-9, 2e-9},
	}
	dense, sparse, out, st := runBothModes(t, build, opt)
	if dev := maxWaveformDeviation(t, dense, sparse, out, opt.TStart, opt.TStop); dev > 1e-9 {
		t.Fatalf("RC output deviates by %g V between modes", dev)
	}
	if st.SparseFactorizations == 0 {
		t.Fatal("sparse kernel unused on RC circuit")
	}
}

// TestSparseSingleUnknown pins the n=1 system end to end: one node,
// current source into an RC load.
func TestSparseSingleUnknown(t *testing.T) {
	build := func() (*Circuit, NodeID) {
		c := NewCircuit()
		out := c.Node("out")
		c.AddISource("I1", out, Ground, 1e-6)
		c.AddResistor("R1", out, Ground, 1e6)
		c.AddCapacitor("C1", out, Ground, 1e-12)
		return c, out
	}
	opt := TransientOptions{TStart: 0, TStop: 5e-6, MaxStep: 50e-9}
	dense, sparse, out, st := runBothModes(t, build, opt)
	if dev := maxWaveformDeviation(t, dense, sparse, out, opt.TStart, opt.TStop); dev > 1e-9 {
		t.Fatalf("n=1 output deviates by %g V between modes", dev)
	}
	if st.SparseFactorizations == 0 {
		t.Fatal("sparse kernel unused on n=1 circuit")
	}
	// Settles to I*R = 1 V.
	w, err := sparse.Waveform(out)
	if err != nil {
		t.Fatal(err)
	}
	if v := w.At(5e-6); math.Abs(v-1) > 1e-3 {
		t.Fatalf("final voltage %g, want ~1", v)
	}
}

// switchDevice is a programmable conductance block used to break the
// static pivot order between solves: it stamps raw values into its
// bound {a,b} node block. Like every device but the MOSFET it is
// frozen into the sparse solver's linear base, so its values change
// only between transients.
type switchDevice struct {
	name               string // "" defaults to "SW"
	a, b               NodeID
	gaa, gab, gba, gbb *float64
	cells              pairCells
}

func (d *switchDevice) Name() string {
	if d.name != "" {
		return d.name
	}
	return "SW"
}
func (d *switchDevice) Nodes() []NodeID { return []NodeID{d.a, d.b} }
func (d *switchDevice) bind(b *binder)  { d.cells = b.pair(d.a, d.b) }
func (d *switchDevice) Stamp(ctx *StampContext) {
	p := &d.cells
	ctx.g[p.aa] += *d.gaa
	ctx.g[p.ab] += *d.gab
	ctx.g[p.ba] += *d.gba
	ctx.g[p.bb] += *d.gbb
}

// TestSparseStaticPivotFallback drives a transient whose Jacobian
// values collapse under the static pivot order mid-run: the solver
// must detect the small pivot, fall back to the dense kernel for that
// iteration, re-analyze, and still deliver the right answer.
func TestSparseStaticPivotFallback(t *testing.T) {
	gaa, gab, gba, gbb := 1.0, 0.0, 0.0, 1e-3
	build := func() (*Circuit, NodeID) {
		c := NewCircuit()
		a := c.Node("a")
		b := c.Node("b")
		c.AddISource("I1", a, Ground, 1e-3)
		c.AddResistor("Rb", b, Ground, 1e3)
		c.AddCapacitor("Cb", b, Ground, 1e-12)
		c.Add(&switchDevice{a: a, b: b, gaa: &gaa, gab: &gab, gba: &gba, gbb: &gbb})
		return c, a
	}
	c, node := build()
	sv, err := NewSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	opt := TransientOptions{TStart: 0, TStop: 2e-9, MaxStep: 0.25e-9, Solver: SparseFast}
	if _, err := sv.Transient(opt); err != nil {
		t.Fatalf("first transient: %v", err)
	}
	if sv.Stats().SparseFallbacks != 0 {
		t.Fatalf("unexpected fallback in the benign run: %+v", sv.Stats())
	}
	// Collapse the diagonal the pilot pivoted on while growing the
	// off-diagonals, so the scheduled pivot fails the relative guard
	// while partial pivoting (row swap) stays perfectly conditioned.
	gaa, gab, gba, gbb = 1e-14, 1.0, 1.0, 0
	res, err := sv.Transient(opt)
	if err != nil {
		t.Fatalf("degenerate transient: %v", err)
	}
	st := sv.Stats()
	if st.SparseFallbacks == 0 {
		t.Fatalf("expected a static-pivot fallback, stats %+v", st)
	}
	// Cross-check the degenerate system against the dense reference.
	cd, _ := build()
	want, err := Transient(cd, TransientOptions{TStart: 0, TStop: 2e-9, MaxStep: 0.25e-9})
	if err != nil {
		t.Fatalf("dense reference on degenerate values: %v", err)
	}
	if dev := maxWaveformDeviation(t, want, res, node, 0, 2e-9); dev > 1e-6 {
		t.Fatalf("fallback result deviates by %g V from dense", dev)
	}
}

// TestSparseModeDoesNotLeakIntoDense: a solver that ran sparse once
// must return to bit-identical dense behaviour when asked.
func TestSparseModeDoesNotLeakIntoDense(t *testing.T) {
	ref, _ := inverterCircuit()
	want, err := Transient(ref, inverterOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := inverterCircuit()
	sv, err := NewSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	optSparse := inverterOptions()
	optSparse.Solver = SparseFast
	if _, err := sv.Transient(optSparse); err != nil {
		t.Fatal(err)
	}
	got, err := sv.Transient(inverterOptions())
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want, "dense after sparse")
}

// TestSparseFallbackOffTouchedGarbage is a promoted review probe:
// after a sparse→dense pivot fallback (which runs the dense LU
// over the full matrix and triggers a re-analysis), the matrix the next
// dense fallback factors must hold the freshly stamped pattern values
// and nothing else — no residue of the earlier dense factorization and
// no stale sparse LU values. Such garbage would be consumed by the
// dense kernel, silently corrupting the solve. The ring of programmable
// conductance blocks first runs benignly (establishing a pivot order),
// then flips to values that swamp the scheduled pivots and force the
// fallback.
func TestSparseFallbackOffTouchedGarbage(t *testing.T) {
	g := make([]float64, 16)
	set := func(vals ...float64) { copy(g, vals) }
	build := func() *Circuit {
		c := NewCircuit()
		n := []NodeID{c.Node("n0"), c.Node("n1"), c.Node("n2"), c.Node("n3")}
		for i := 0; i < 4; i++ {
			a, b := n[i], n[(i+1)%4]
			c.Add(&switchDevice{name: fmt.Sprintf("SW%d", i),
				a: a, b: b, gaa: &g[i*4], gab: &g[i*4+1], gba: &g[i*4+2], gbb: &g[i*4+3]})
		}
		for i, nd := range n {
			c.AddResistor(fmt.Sprintf("R%d", i), nd, Ground, 1e3)
			c.AddCapacitor(fmt.Sprintf("C%d", i), nd, Ground, 1e-12)
		}
		c.AddISource("I1", n[0], Ground, 1e-3)
		return c
	}
	// Benign values: diagonally dominant, ring coupling.
	set(1, 0.1, 0.1, 1, 1, 0.1, 0.1, 1, 1, 0.1, 0.1, 1, 1, 0.1, 0.1, 1)
	sv, err := NewSolver(build())
	if err != nil {
		t.Fatal(err)
	}
	opt := TransientOptions{TStart: 0, TStop: 2e-9, MaxStep: 0.25e-9, Solver: SparseFast}
	if _, err := sv.Transient(opt); err != nil {
		t.Fatalf("benign: %v", err)
	}
	if sv.Stats().SparseFallbacks != 0 {
		t.Fatalf("benign run fell back: %+v", sv.Stats())
	}

	// Degenerate values: huge off-diagonals swamp the scheduled pivots,
	// forcing the dense fallback (and a re-analysis) mid-run.
	set(0, 1e9, 1e9, 0, 0, 1e9, 1e9, 0, 0, 1e9, 1e9, 0, 0, 1e9, 1e9, 0)
	if _, err := sv.Transient(opt); err != nil {
		t.Logf("degenerate transient error (tolerated; the fallback path is what matters): %v", err)
	}
	st := sv.Stats()
	if st.SparseFallbacks == 0 {
		t.Fatalf("degenerate values did not trigger a fallback, stats %+v", st)
	}

	// Simulate the restamp and scatter that precede any later dense
	// fallback, then compare the dense matrix with the packed values
	// and scan it for garbage outside the pattern.
	clear(sv.ctx.V)
	sv.restampSparse()
	sv.scatter()
	want := map[int32]float64{}
	for k, off := range sv.pattern {
		want[off] = sv.ctx.g[k+1]
	}
	for off, val := range sv.dense.Data {
		if w := want[int32(off)]; val != w {
			t.Errorf("dense fallback matrix at offset %d holds %g, the stamped value is %g", off, val, w)
		}
	}
}

// loadedParts are the devices loadedInverter adds to the inverter,
// and the inverter's nMOS.
type loadedParts struct {
	r  *Resistor
	cx *Capacitor
	is *ISource
	mn *MOSFET
}

// loadedInverter is inverterCircuit with a resistor, a capacitor and a
// current source on its output, so that a current source and several
// capacitor companions share RHS rows.
func loadedInverter() (*Circuit, loadedParts) {
	c, out := inverterCircuit()
	p := loadedParts{
		r:  c.AddResistor("RL", out, Ground, 50e3),
		cx: c.AddCapacitor("CX", out, Ground, 1e-15),
		is: c.AddISource("IL", out, Ground, 1e-6),
	}
	for _, d := range c.devices {
		if d.Name() == "MN" {
			p.mn = d.(*MOSFET)
		}
	}
	return c, p
}

// TestSparseLoadedInverterPin pins a SparseFast transient of
// loadedInverter at full precision: a SHA-256 over the raw bits of the
// time axis and every node's samples, and the solver's work counters.
// The per-solve RHS sums a current source and capacitor companions on
// one row, so a re-stamp that reorders those writes moves the hash.
func TestSparseLoadedInverterPin(t *testing.T) {
	const pin = "55bdcaf2da947ec2d162023d4081eb862a92048d719a3bf4679c7df7744f4a82 steps=737 rejected=3 iterations=1239 factorizations=1239 sparse=1234 reuses=494"
	c, _ := loadedInverter()
	sv, err := NewSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	sv.SetSymbolicCache(sparse.NewSymbolicCache(0))
	opt := inverterOptions()
	opt.Solver = SparseFast
	res, err := sv.Transient(opt)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	put(res.Times)
	for _, n := range c.recorded(nil) {
		put(res.nodes[n])
	}
	st := sv.Stats()
	got := fmt.Sprintf("%x steps=%d rejected=%d iterations=%d factorizations=%d sparse=%d reuses=%d",
		h.Sum(nil), st.Steps, st.Rejected, st.Iterations, st.Factorizations, st.SparseFactorizations, st.LinearReuses)
	if got != pin {
		t.Errorf("loaded inverter, sparse-fast:\n got %s\npin %s", got, pin)
	}
}

// TestSparseLinearBaseFollowsParameters: the frozen linear base is
// keyed on the step size and method, so it must also be rebuilt when a
// device parameter changes between two transients on one solver. Here
// every solve runs at one (Dt, Method) — MinStep = MaxStep forces the
// step size and backward Euler the method — so a base keyed on (Dt,
// Method) alone would carry the first transient's resistor or
// capacitor into the second, and the second result would differ from
// a fresh solver's. The MOSFET cases hold the same for the channel
// bank: a bank built once and never refreshed would carry the first
// transient's K, VT0 or Lambda into the second.
func TestSparseLinearBaseFollowsParameters(t *testing.T) {
	build := loadedInverter
	opt := inverterOptions()
	opt.Solver = SparseFast
	opt.Method = BackwardEuler
	opt.MinStep = opt.MaxStep
	opt.Breakpoints = nil
	for _, tc := range []struct {
		name   string
		mutate func(loadedParts)
	}{
		{"R", func(p loadedParts) { p.r.R = 20e3 }},
		{"C", func(p loadedParts) { p.cx.C = 5e-15 }},
		{"I", func(p loadedParts) { p.is.I = -2e-6 }},
		{"K", func(p loadedParts) { p.mn.P.K = 90e-6 }},
		{"VT0", func(p loadedParts) { p.mn.P.VT0 = 0.25 }},
		{"Lambda", func(p loadedParts) { p.mn.P.Lambda = 0.1 }},
		{"Cgs", func(p loadedParts) { p.mn.P.Cgs = 0.3e-15 }},
	} {
		c, p := build()
		sv, err := NewSolver(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Transient(opt); err != nil {
			t.Fatalf("%s: first transient: %v", tc.name, err)
		}
		tc.mutate(p)
		got, err := sv.Transient(opt)
		if err != nil {
			t.Fatalf("%s: second transient: %v", tc.name, err)
		}
		fc, fp := build()
		tc.mutate(fp)
		want, err := Transient(fc, opt)
		if err != nil {
			t.Fatalf("%s: fresh transient: %v", tc.name, err)
		}
		requireBitIdentical(t, got, want, tc.name+" changed between transients")
	}
}
