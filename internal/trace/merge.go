package trace

// Merge visits the events of several event lists in time order: it calls
// visit(i, e) once for every event e of lists[i].Events (the lists'
// initial values are not read). Events at equal times are visited by
// list and then by position within the list. For any times that are not
// NaN, that is exactly the order sort.SliceStable by Time gives the
// concatenation of the lists, so a caller that used to tag, concatenate
// and stable-sort the events sees the same sequence.
//
// NaN is unordered under <, so a stable sort has no defined place for
// it. Merge places NaN times after every number (after +Inf), equal to
// each other; -0 and +0 are equal times.
//
// When every list is sorted (the Trace invariant) the visit is one
// linear k-way merge, O(n·k) for n events in k lists, that allocates
// nothing. Otherwise the events are copied once and the sorted runs of
// their concatenation are merged pairwise, O(n log r) for r runs and
// never quadratic.
func Merge(lists []Trace, visit func(list int, e Event)) {
	for _, l := range lists {
		if !Sorted(l.Events) {
			mergeRuns(lists, visit)
			return
		}
	}
	var at [4]int // next position per list; enough for every gate arity
	pos := at[:]
	if len(lists) > len(at) {
		pos = make([]int, len(lists))
	}
	for {
		best := -1
		var bt float64
		for i, l := range lists {
			if p := pos[i]; p < len(l.Events) && (best < 0 || before(l.Events[p].Time, bt)) {
				best, bt = i, l.Events[p].Time
			}
		}
		if best < 0 {
			return
		}
		visit(best, lists[best].Events[pos[best]])
		pos[best]++
	}
}

// Sorted reports whether events are in Merge's time order.
func Sorted(events []Event) bool {
	for i := 1; i < len(events); i++ {
		if before(events[i].Time, events[i-1].Time) {
			return false
		}
	}
	return true
}

// before is Merge's strict order on times: < with NaN after every
// number.
func before(x, y float64) bool {
	return x < y || y != y && x == x
}

// tagged is one event of the unsorted path with the list it came from.
type tagged struct {
	e    Event
	list int
}

// mergeRuns is Merge's path for unsorted lists: a stable natural merge
// sort of the tagged concatenation. Each pass merges neighbouring runs
// pairwise, the left run winning ties, from one buffer into the other.
func mergeRuns(lists []Trace, visit func(list int, e Event)) {
	var src []tagged
	for i, l := range lists {
		for _, e := range l.Events {
			src = append(src, tagged{e, i})
		}
	}
	bounds := []int{0} // run starts, then len(src)
	for k := 1; k < len(src); k++ {
		if before(src[k].e.Time, src[k-1].e.Time) {
			bounds = append(bounds, k)
		}
	}
	bounds = append(bounds, len(src))
	dst := make([]tagged, len(src))
	for runs := len(bounds) - 1; runs > 1; runs = len(bounds) - 1 {
		next := bounds[:1]
		for r := 0; r < runs; r += 2 {
			lo, mid, hi := bounds[r], bounds[r+1], bounds[min(r+2, runs)]
			merge2(dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, hi)
		}
		bounds = next
		src, dst = dst, src
	}
	for _, t := range src {
		visit(t.list, t.e)
	}
}

// merge2 stably merges the sorted runs a and b into out.
func merge2(out, a, b []tagged) {
	i, j := 0, 0
	for k := range out {
		if j == len(b) || i < len(a) && !before(b[j].e.Time, a[i].e.Time) {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
	}
}
