package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/la"
	"hybriddelay/internal/session"
	"hybriddelay/internal/waveform"
)

// analogBench builds the analog golden bench of a registered gate at
// the flags' bench parameters.
func analogBench(opt options, name string) (*gate.Analog, error) {
	g, err := gate.Find(name)
	if err != nil {
		return nil, err
	}
	p, err := opt.benchParams()
	if err != nil {
		return nil, err
	}
	return gate.NewAnalog(g, p)
}

// sessionFit returns the NOR2 operating point's measure-and-fit output
// from the session the engine flags build: the parametrization fig7
// scores, loaded from the -store directory when it holds the point.
func sessionFit(opt options) (gate.Fitted, error) {
	p, err := opt.benchParams()
	if err != nil {
		return gate.Fitted{}, err
	}
	s, _, finishStore, err := opt.open(os.Stderr, session.Options{})
	if err != nil {
		return gate.Fitted{}, err
	}
	defer finishStore()
	pt, err := s.ParamCache().OperatingPoint(context.Background(), gate.NOR2, p, session.DefaultExpDMin)
	if err != nil {
		return gate.Fitted{}, err
	}
	return pt.Fitted(), nil
}

// pairSweep samples the NOR2 bench's pair-probe delay over the
// separations: the falling output delays under rising inputs, the
// rising ones (from the worst case V_N = GND) under falling inputs.
func pairSweep(opt options, deltas []float64, rising bool) ([]float64, error) {
	b, err := analogBench(opt, "nor2")
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		if out[i], err = b.Delay(b.Pair(d, rising)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepPs returns a model sweep's delays in ps.
func sweepPs(pts []hybrid.SweepPoint) []float64 {
	out := make([]float64, len(pts))
	for i := range pts {
		out[i] = waveform.ToPs(pts[i].Delay)
	}
	return out
}

// printSweep prints MIS delay series over Delta as CSV under -csv,
// otherwise as a plot.
func printSweep(opt options, title string, ss []series) {
	if opt.csv {
		fmt.Print(csvOut("delta_ps", ss))
	} else {
		fmt.Print(asciiPlot(title, "Delta [ps]", "delay [ps]", 90, 18, ss))
	}
}

// deltaGrid returns the MIS sweep grid in seconds.
func deltaGrid(opt options, limPs, stepPs float64) []float64 {
	if opt.fast {
		stepPs *= 3
	}
	var out []float64
	for d := -limPs; d <= limPs+1e-9; d += stepPs {
		out = append(out, waveform.Ps(d))
	}
	return out
}

func toPsSlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = waveform.ToPs(x)
	}
	return out
}

// runFig2Wave prints the analog waveforms of Fig. 2a (falling output,
// Delta = 10 ps) and Fig. 2c (rising output, Delta = 40 ps).
func runFig2Wave(opt options) error {
	b, err := analogBench(opt, "nor2")
	if err != nil {
		return err
	}
	fall, err := b.Waveforms(b.Pair(10e-12, true))
	if err != nil {
		return err
	}
	rise, err := b.Waveforms(b.Pair(40e-12, false))
	if err != nil {
		return err
	}
	render := func(title string, r gate.ProbeWaves) {
		n := 160
		t0, t1 := r.Out.Start(), r.Out.End()
		xs := make([]float64, n+1)
		mk := func(w *waveform.Waveform) []float64 {
			ys := make([]float64, n+1)
			for i := 0; i <= n; i++ {
				tm := t0 + (t1-t0)*float64(i)/float64(n)
				xs[i] = waveform.ToPs(tm)
				ys[i] = w.At(tm)
			}
			return ys
		}
		ss := []series{
			{name: "VA", marker: 'a', xs: xs, ys: mk(r.In[0])},
			{name: "VB", marker: 'b', xs: xs, ys: mk(r.In[1])},
			{name: "VO", marker: 'O', xs: xs, ys: mk(r.Out)},
			{name: "VN", marker: 'n', xs: xs, ys: mk(r.Internal[0])},
		}
		if opt.csv {
			fmt.Printf("# %s\n%s", title, csvOut("t_ps", ss))
		} else {
			fmt.Print(asciiPlot(title, "time [ps]", "voltage [V]", 100, 20, ss))
		}
	}
	render("Fig. 2a — falling output transition (Delta = 10 ps)", fall)
	render("Fig. 2c — rising output transition (Delta = 40 ps)", rise)
	return nil
}

// runFig2Fall prints the golden falling MIS sweep (Fig. 2b).
func runFig2Fall(opt options) error {
	deltas := deltaGrid(opt, 60, 5)
	delays, err := pairSweep(opt, deltas, true)
	if err != nil {
		return err
	}
	xs, ys := toPsSlice(deltas), toPsSlice(delays)
	s := []series{{name: "delta_fall_S", marker: '*', xs: xs, ys: ys}}
	printSweep(opt, "Fig. 2b — golden falling MIS delay", s)
	if !opt.csv {
		tail := ys[0]
		fmt.Printf("speed-up at Delta=0: %.1f%% (paper: ~-28%%)\n", 100*(findAt(xs, ys, 0)-tail)/tail)
	}
	return nil
}

func findAt(xs, ys []float64, x float64) float64 {
	best, bv := 0, 1e300
	for i := range xs {
		d := xs[i] - x
		if d < 0 {
			d = -d
		}
		if d < bv {
			bv, best = d, i
		}
	}
	return ys[best]
}

// runFig2Rise prints the golden rising MIS sweep (Fig. 2d).
func runFig2Rise(opt options) error {
	deltas := deltaGrid(opt, 60, 5)
	delays, err := pairSweep(opt, deltas, false)
	if err != nil {
		return err
	}
	s := []series{{name: "delta_rise_S", marker: '*', xs: toPsSlice(deltas), ys: toPsSlice(delays)}}
	printSweep(opt, "Fig. 2d — golden rising MIS delay", s)
	return nil
}

// runFig4 prints the hybrid mode trajectories from the paper's initial
// values (Fig. 4), using the Table I parameters.
func runFig4(opt options) error {
	p := hybrid.TableI()
	vdd := p.Supply.VDD
	cases := []struct {
		name string
		mode hybrid.Mode
		v0   la.Vec2
	}{
		{"(0,0)", hybrid.Mode00, la.Vec2{X: 0, Y: 0}},
		{"(0,1)", hybrid.Mode01, la.Vec2{X: vdd, Y: vdd}},
		{"(1,0)", hybrid.Mode10, la.Vec2{X: vdd, Y: vdd}},
		{"(1,1)", hybrid.Mode11, la.Vec2{X: vdd / 2, Y: vdd}},
	}
	var ss []series
	markers := []byte{'0', '1', '2', '3'}
	for i, c := range cases {
		tr, err := p.NewTrajectory(c.v0, []hybrid.Phase{{Start: 0, Mode: c.mode}})
		if err != nil {
			return err
		}
		times, vn, vo := tr.Sample(0, 150e-12, 150)
		ss = append(ss,
			series{name: "VO" + c.name, marker: markers[i], xs: toPsSlice(times), ys: vo},
			series{name: "VN" + c.name, marker: '.', xs: toPsSlice(times), ys: vn},
		)
	}
	if opt.csv {
		fmt.Print(csvOut("t_ps", ss))
	} else {
		fmt.Print(asciiPlot("Fig. 4 — temporal evolution of all mode systems (Table I)",
			"time [ps]", "voltage [V]", 100, 22, ss))
	}
	return nil
}

// runTable1 prints the Table I analogue: the golden characteristic
// delays of the session's NOR2 operating point and the hybrid model
// fitted to them.
func runTable1(opt options) error {
	f, err := sessionFit(opt)
	if err != nil {
		return err
	}
	target, p := f.Meas.Pair, f.HM
	achieved, err := p.Characteristic()
	if err != nil {
		return err
	}
	ps := func(c hybrid.Characteristic) (out []any) {
		for _, d := range c.AsSlice() {
			out = append(out, waveform.ToPs(d))
		}
		return out
	}
	w := opt.w()
	fmt.Fprintf(w, "golden characteristic delays [ps]:\n")
	fmt.Fprintf(w, "  fall(-inf)=%.2f fall(0)=%.2f fall(+inf)=%.2f\n  rise(-inf)=%.2f rise(0)=%.2f rise(+inf)=%.2f\n", ps(target)...)
	fmt.Fprintf(w, "\nTable I (this testbench):\n")
	fmt.Fprintf(w, "  Parameter  Value\n")
	fmt.Fprintf(w, "  R1         %10.3f kΩ\n", p.R1/1e3)
	fmt.Fprintf(w, "  R2         %10.3f kΩ\n", p.R2/1e3)
	fmt.Fprintf(w, "  R3         %10.3f kΩ\n", p.R3/1e3)
	fmt.Fprintf(w, "  R4         %10.3f kΩ\n", p.R4/1e3)
	fmt.Fprintf(w, "  CN         %10.3f aF\n", p.CN/1e-18)
	fmt.Fprintf(w, "  CO         %10.3f aF\n", p.CO/1e-18)
	fmt.Fprintf(w, "  δmin       %10.3f ps (auto; paper: 18 ps for its ratio)\n", waveform.ToPs(p.DMin))
	fmt.Fprintf(w, "\nachieved [ps]: fall %.2f/%.2f/%.2f rise %.2f/%.2f/%.2f\n", ps(achieved)...)
	fmt.Fprintf(w, "\npaper Table I reference: %s\n", hybrid.TableI())
	return nil
}

// runFig5 compares the session's hybrid model's falling MIS delays
// against the golden sweep (Fig. 5).
func runFig5(opt options) error {
	f, err := sessionFit(opt)
	if err != nil {
		return err
	}
	deltas := deltaGrid(opt, 60, 5)
	golden, err := pairSweep(opt, deltas, true)
	if err != nil {
		return err
	}
	model, err := f.HM.FallingSweep(deltas)
	if err != nil {
		return err
	}
	xs := toPsSlice(deltas)
	ss := []series{
		{name: "delta_fall_S (golden)", marker: '*', xs: xs, ys: toPsSlice(golden)},
		{name: "delta_fall_M (hybrid)", marker: 'o', xs: xs, ys: sweepPs(model)},
	}
	printSweep(opt, "Fig. 5 — falling MIS delays: hybrid model vs golden", ss)
	return nil
}

// runFig6 prints the session's hybrid rising delays for the three V_N
// initial values against the golden sweep (Fig. 6).
func runFig6(opt options) error {
	f, err := sessionFit(opt)
	if err != nil {
		return err
	}
	deltas := deltaGrid(opt, 90, 7.5)
	golden, err := pairSweep(opt, deltas, false)
	if err != nil {
		return err
	}
	xs := toPsSlice(deltas)
	ss := []series{{name: "delta_rise_S (golden)", marker: '*', xs: xs, ys: toPsSlice(golden)}}
	for _, vn := range []hybrid.VNInitial{hybrid.VNGround, hybrid.VNHalf, hybrid.VNSupply} {
		pts, err := f.HM.RisingSweep(deltas, vn)
		if err != nil {
			return err
		}
		marker := byte('g')
		switch vn {
		case hybrid.VNHalf:
			marker = 'h'
		case hybrid.VNSupply:
			marker = 'v'
		}
		ss = append(ss, series{name: "HM VN=" + vn.String(), marker: marker, xs: xs, ys: sweepPs(pts)})
	}
	printSweep(opt, "Fig. 6 — rising MIS delays: hybrid model (3 V_N values) vs golden", ss)
	if !opt.csv {
		fmt.Println("note: the model is flat for Delta <= 0 at VN=GND — the deficiency §IV reports.")
	}
	return nil
}

// runFig7 runs the deviation-area accuracy comparison (Fig. 7) for the
// selected -gate through one Session per invocation: the engine
// prepares (and memoizes) the operating point and fans the units
// across its worker pool.
func runFig7(opt options) error {
	g, err := opt.gateSpec()
	if err != nil {
		return err
	}
	seeds, err := opt.seedList(opt.fast)
	if err != nil {
		return err
	}
	configs := gen.PaperConfigs()
	for i := range configs {
		configs[i].Inputs = g.Arity()
		if opt.trans > 0 {
			configs[i].Transitions = opt.trans
		} else if opt.fast {
			configs[i].Transitions /= 4
		}
	}
	out := opt.w()
	s, _, finishStore, err := opt.open(os.Stderr, session.Options{})
	if err != nil {
		return err
	}
	defer finishStore()
	// The engine never spawns more workers than units.
	workers := min(s.Workers(), len(configs)*len(seeds))
	job := session.GateJob{
		Gate: g.Name(), Configs: configs, Seeds: seeds,
		// No golden cache: every (config, seed) unit in a single fig7
		// run is unique, so memoization could never hit within one CLI
		// invocation — it would only hold every trace in memory. With a
		// -store directory the cache stays on as the read-through front
		// of the persistent tier, so repeat runs warm-start from disk.
		NoCache: opt.store == "",
	}
	if !opt.csv {
		// Progress goes to stderr so redirected stdout stays clean.
		job.Progress = func(p session.Progress) {
			fmt.Fprintf(os.Stderr, "\r%-20s seed %-6d %d/%d units", p.Config.Name(), p.Seed, p.Completed, p.Total)
		}
	}
	start := time.Now()
	jres, err := s.Evaluate(context.Background(), job)
	if !opt.csv {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	reportSolver(os.Stderr, jres.Stats.Solver)
	results := jres.Gate
	if g.Name() != gate.Default().Name() {
		// The default gate keeps the historical output byte-for-byte; other
		// gates announce themselves. In CSV mode the banner goes to stderr
		// like the progress lines, so redirected stdout stays pure CSV.
		w := out
		if opt.csv {
			w = os.Stderr
		}
		fmt.Fprintf(w, "gate: %s (%d inputs), hybrid fit: %s\n", g.Name(), g.Arity(), jres.Models.HM)
	}
	groups := []string{}
	vals := map[string][]float64{}
	for _, name := range eval.ModelNames {
		vals[name] = nil
	}
	for _, res := range results {
		groups = append(groups, res.Config.Name())
		for _, name := range eval.ModelNames {
			vals[name] = append(vals[name], res.Normalized[name])
		}
		if !opt.csv {
			fmt.Fprintf(out, "%-20s golden events: %d\n", res.Config.Name(), res.GoldenEv)
		}
	}
	if !opt.csv {
		fmt.Fprintf(out, "%d units on %d workers in %.1fs\n", len(configs)*len(seeds), workers, time.Since(start).Seconds())
	}
	if opt.csv {
		fmt.Fprint(out, "config")
		for _, n := range eval.ModelNames {
			fmt.Fprintf(out, ",%s", n)
		}
		fmt.Fprintln(out)
		for gi, g := range groups {
			fmt.Fprintf(out, "%q", g)
			for _, n := range eval.ModelNames {
				fmt.Fprintf(out, ",%g", vals[n][gi])
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, barChart("Fig. 7 — normalized deviation area (lower is better, inertial = 1)",
		groups, eval.ModelNames, vals, 40))
	return nil
}

// runFig8 compares the session's hybrid model's falling delays with
// and without the pure delay against the golden sweep (Fig. 8).
func runFig8(opt options) error {
	f, err := sessionFit(opt)
	if err != nil {
		return err
	}
	deltas := deltaGrid(opt, 60, 5)
	golden, err := pairSweep(opt, deltas, true)
	if err != nil {
		return err
	}
	with, err := f.HM.FallingSweep(deltas)
	if err != nil {
		return err
	}
	without, err := f.HMNoDMin.FallingSweep(deltas)
	if err != nil {
		return err
	}
	xs := toPsSlice(deltas)
	ss := []series{
		{name: "golden", marker: '*', xs: xs, ys: toPsSlice(golden)},
		{name: "HM with δmin", marker: 'o', xs: xs, ys: sweepPs(with)},
		{name: "HM without δmin", marker: 'x', xs: xs, ys: sweepPs(without)},
	}
	printSweep(opt, "Fig. 8 — falling delays: pure delay ablation", ss)
	return nil
}

// runCharlie compares the closed-form characteristic Charlie delay
// formulas (8)-(12) against the exact trajectory solver.
func runCharlie(opt options) error {
	p := hybrid.TableI()
	exact, err := p.Characteristic()
	if err != nil {
		return err
	}
	formula, err := p.CharlieCharacteristic()
	if err != nil {
		return err
	}
	names := []string{"fall(-inf)", "fall(0)", "fall(+inf)", "rise(-inf)", "rise(0)", "rise(+inf)"}
	eqs := []string{"eq (9) exact", "eq (8) exact", "eq (10)", "eq (12)", "eq (11)", "eq (11)"}
	e := exact.AsSlice()
	f := formula.AsSlice()
	fmt.Println("Table I parameters — closed forms vs exact crossing solver [ps]:")
	fmt.Printf("  %-11s %-13s %10s %10s %12s\n", "delay", "formula", "closed", "exact", "error [fs]")
	for i := range names {
		fmt.Printf("  %-11s %-13s %10.3f %10.3f %12.2f\n",
			names[i], eqs[i], waveform.ToPs(f[i]), waveform.ToPs(e[i]), (f[i]-e[i])/1e-15)
	}
	lit, err := p.CharlieFallPlusInfAtW(hybrid.PaperW10)
	if err == nil {
		fmt.Printf("\nliteral eq (10) at the printed w = 100 ps: %.2f ps (exact %.2f ps)\n",
			waveform.ToPs(lit), waveform.ToPs(e[2]))
		fmt.Println("  -> the printed expansion point predates the Table I time constants;")
		fmt.Println("     this repo uses the slow-mode estimate as the expansion point")
		fmt.Println("     (see the header of internal/hybrid/charlie.go).")
	}
	return nil
}
