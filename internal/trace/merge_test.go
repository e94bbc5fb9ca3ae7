package trace

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// visit is one event as Merge visits it.
type visit struct {
	list  int
	bits  uint64 // raw time bits: tells -0 from +0
	value bool
}

func merged(lists []Trace) []visit {
	var out []visit
	Merge(lists, func(i int, e Event) { out = append(out, visit{i, math.Float64bits(e.Time), e.Value}) })
	return out
}

// stableOrder is the reference Merge replaced: tag every event with its
// list, concatenate, and stable-sort by time with less.
func stableOrder(lists []Trace, less func(x, y float64) bool) []visit {
	type tagged struct {
		time float64
		v    visit
	}
	var all []tagged
	for i, l := range lists {
		for _, e := range l.Events {
			all = append(all, tagged{e.Time, visit{i, math.Float64bits(e.Time), e.Value}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return less(all[i].time, all[j].time) })
	out := make([]visit, len(all))
	for i, t := range all {
		out[i] = t.v
	}
	return out
}

// FuzzMergeOrder checks Merge's visit order against sort.SliceStable on
// the tagged concatenation, over 1–4 lists of events whose times are
// drawn from a small set with many duplicates, ±0, ±Inf and one free
// fuzzed value. The first byte picks the list count and whether each
// list is sorted first (Merge's linear path) or left as drawn (its run
// merge). NaN is unordered under <, so the sort.SliceStable reference
// is only defined without it; with a NaN the order must match the
// stable sort under Merge's own rule, NaN after every number.
func FuzzMergeOrder(f *testing.F) {
	f.Add([]byte{0x01, 9, 16, 1, 24, 130, 40}, 0.5)
	f.Add([]byte{0x13, 0, 8, 1, 8, 2, 0, 3, 16, 4, 24, 5, 2}, -1.0)
	f.Add([]byte{0x12, 0, 200, 1, 96, 2, 16, 128, 16, 129, 16, 130, 16}, math.Inf(1))
	f.Add([]byte{0x02, 0, 3, 1, 3, 2, 8, 3, 3}, math.NaN())
	f.Add([]byte{0x03, 0, 0, 1, 0, 2, 32, 3, 0, 131, 0}, 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, x float64) {
		if len(raw) == 0 {
			return
		}
		k := 1 + int(raw[0]%4)
		presort := raw[0]&0x10 != 0
		lists := make([]Trace, k)
		hasNaN := false
		for i := 1; i+1 < len(raw) && i < 1+2*256; i += 2 {
			c, d := raw[i], raw[i+1]
			var tm float64
			switch d % 8 {
			case 0:
				tm = math.Copysign(0, -1)
			case 1:
				tm = math.Inf(1)
			case 2:
				tm = math.Inf(-1)
			case 3:
				tm = x
			default:
				tm = float64(d / 8)
			}
			hasNaN = hasNaN || math.IsNaN(tm)
			l := &lists[int(c)%k]
			l.Events = append(l.Events, Event{Time: tm, Value: c&0x80 != 0})
		}
		if presort {
			for _, l := range lists {
				ev := l.Events
				sort.SliceStable(ev, func(i, j int) bool { return before(ev[i].Time, ev[j].Time) })
			}
		}
		got := merged(lists)
		nanLast := func(x, y float64) bool { return x < y || math.IsNaN(y) && !math.IsNaN(x) }
		if want := stableOrder(lists, nanLast); !slices.Equal(got, want) {
			t.Fatalf("Merge order %v, want %v (NaN last)", got, want)
		}
		if hasNaN {
			return
		}
		lt := func(x, y float64) bool { return x < y }
		if want := stableOrder(lists, lt); !slices.Equal(got, want) {
			t.Fatalf("Merge order %v, want the stable sort %v", got, want)
		}
	})
}

// TestMergeLinearAndRuns checks both of Merge's paths against the
// stable sort on cases FuzzMergeOrder does not draw: more lists than
// the linear merge keeps positions for on the stack, and one list of
// many runs.
func TestMergeLinearAndRuns(t *testing.T) {
	mk := func(times ...float64) Trace {
		ev := make([]Event, len(times))
		for i, tm := range times {
			ev[i] = Event{Time: tm, Value: i%2 == 0}
		}
		return Trace{Events: ev}
	}
	lt := func(x, y float64) bool { return x < y }
	cases := [][]Trace{
		{mk(1, 2, 2, 3), mk(0, 2, 3, 3), mk(2)},
		{mk(), mk(5), mk(), mk(1, 1, 1), mk(0, 9)},
		{mk(3, 2, 1, 1, 0), mk(2, 2, 0)},
		{mk(4, 3, 2, 1, 0, 4, 3, 2, 1, 0)}, // ten runs in one list
	}
	for ci, lists := range cases {
		if got, want := merged(lists), stableOrder(lists, lt); !slices.Equal(got, want) {
			t.Errorf("case %d: Merge order %v, want %v", ci, got, want)
		}
	}
}

// TestDeviationAreaAllocs: scoring two sorted traces allocates nothing.
func TestDeviationAreaAllocs(t *testing.T) {
	a := mkTrace(false, 1, 3, 3, 5, 8, 13, 21)
	b := mkTrace(true, 2, 3, 5, 7, 11, 13)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += DeviationArea(a, b, 0, 20) }); allocs != 0 {
		t.Errorf("DeviationArea allocates %v times per call, want 0", allocs)
	}
	_ = sink
}
