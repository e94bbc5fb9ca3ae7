package la

import (
	"fmt"
	"math"
	"slices"
)

// Pivot-schedule replay for FactorSolveInPlace.
//
// The MNA systems of one circuit share a structural pattern, and a
// Newton stream factors them with almost always the same pivot
// sequence: the partial-pivot search picks the same rows column after
// column, and most positions of the system stay structurally zero
// through the whole elimination. Once a sequence has been seen, a
// symbolic pass over the pattern (learn) lists, per column, the pivot
// candidates, the rows to eliminate and the pivot-row columns to
// update, and per row the back-substitution columns. Later calls replay
// that schedule (replay), touching only positions that can be nonzero.
//
// Every scheduled pivot is confirmed against the candidates of its
// column before it is used, with comparisons that imply the plain
// kernel's choice (the first strict maximum of |a[i][k]| in scan
// order, column 0 seeded with row 0, later columns with zero). At the
// first column whose pivot is not confirmed, the plain elimination
// continues from that column with the state it would have reached
// itself; its sequence is then looked up among the recently used
// schedules, or learned, and becomes the first one tried.
//
// Why the result is bit-identical. The replay performs the same
// operations as the plain kernel, in the same order, on every position
// that can be nonzero: the same pivots, the same multiplier divisions,
// the same row updates (skipped, as there, for a zero multiplier), the
// same carried right-hand side updates and the same ascending
// back-substitution sums. What it skips are operations with a
// structurally zero operand:
//
//   - a row with a structural zero in the pivot column: the plain
//     kernel stores l = 0/pivot = ±0, skips the row update (l == 0) and
//     subtracts l*x[k] = ±0 from x[i];
//   - an update t - l*0 where the pivot row is structurally zero;
//   - a back-substitution term s - 0*x[j] where U is structurally zero.
//
// Positions outside the pattern hold +0 (the caller's contract: stamped
// cells start at +0 and only ever receive sums), and they stay +0 under
// the plain kernel as long as every multiplier is finite, because
// t - l*(+0) = t for t = +0. A carried or summed value t is never -0:
// it starts as a right-hand side entry (checked per call, see
// replayable) and only ever has values subtracted from it, and t - u is
// -0 only for t = -0. So each skipped subtraction of ±0 leaves its
// target unchanged, provided the other factor is finite. The replay
// therefore hands over to the plain kernel before a non-finite value
// could enter a skipped operation: a column whose pivot is not finite
// or whose carried x[k] is not finite resumes the plain elimination
// there (confirmed pivots bound every multiplier by |l| <= 1), and a
// non-finite solution entry finishes the back substitution with the
// plain loop. Only the L entries the plain kernel writes as -0 (0 over
// a negative pivot) can differ, as +0; nothing reads them back.

// maxSchedules bounds the recently used pivot schedules kept per LU.
const maxSchedules = 4

// replayState is an LU's pattern and learned pivot schedules.
type replayState struct {
	n      int
	mask   []bool      // structural pattern, row-major n×n; nil = replay off
	seq    []int32     // pivot positions chosen column by column by the plain kernel
	y      []float64   // carried right-hand side, by stored row
	scheds []*schedule // learned schedules, most recently used first

	replayed, resumed, learned int64 // see ReplayStats
}

// schedule is the symbolic elimination of one pivot sequence. The
// replay never moves rows: it addresses every row where the caller
// stored it, so its offsets already include the row permutation.
type schedule struct {
	seq  []int32 // pivot row position (before the swap) of each column
	cols []replayColumn
}

// replayColumn is the work of one elimination column k.
type replayColumn struct {
	row    int32   // stored row of the pivot
	pivot  int32   // offset of the pivot
	before []int32 // offsets of the other candidates the plain search scans before it
	after  []int32 // offsets of the other candidates it scans after it
	elim   []int32 // stored rows below the pivot with a possibly nonzero multiplier
	upd    []int32 // j - k for the columns j > k the pivot row can be nonzero in
	back   []int32 // the columns j > k U can be nonzero in, ascending
}

// ReplayStats counts how FactorSolveInPlace calls with a pattern ran.
type ReplayStats struct {
	Replayed int64 // solved on a learned schedule
	Resumed  int64 // handed over to the plain kernel at some column
	Learned  int64 // new pivot sequences learned
}

// ReplayStats returns the replay counters since the last SetPattern.
func (f *LU) ReplayStats() ReplayStats {
	return ReplayStats{Replayed: f.rp.replayed, Resumed: f.rp.resumed, Learned: f.rp.learned}
}

// SetPattern declares the structural pattern of the n×n systems later
// passed to FactorSolveInPlace: the row-major offsets i*n+j of every
// entry that can be nonzero (duplicates are fine). Every other entry
// must be +0 on every call. FactorSolveInPlace then learns the pivot
// sequences it meets and replays them, bit-identically to the plain
// kernel. A nil pattern turns replay off; learned schedules are
// dropped either way.
func (f *LU) SetPattern(n int, pattern []int32) {
	f.rp = replayState{}
	if pattern == nil {
		return
	}
	mask := make([]bool, n*n)
	for _, o := range pattern {
		if o < 0 || int(o) >= n*n {
			panic(fmt.Sprintf("la: pattern offset %d outside a %dx%d matrix", o, n, n))
		}
		mask[o] = true
	}
	f.rp = replayState{n: n, mask: mask, seq: make([]int32, n), y: make([]float64, n)}
}

// replayable reports whether a system of size n with right-hand side b
// can be replayed: a pattern of this size is set, a schedule is learned,
// and b holds no -0 (see the argument above).
func (r *replayState) replayable(n int, b []float64) bool {
	if r.mask == nil || r.n != n || len(r.scheds) == 0 {
		return false
	}
	for _, v := range b {
		if v == 0 && math.Signbit(v) {
			return false
		}
	}
	return true
}

// record notes the plain kernel's pivot choice p for column k.
func (r *replayState) record(k, p int) {
	if k < len(r.seq) {
		r.seq[k] = int32(p)
	}
}

// replay solves f.lu·x = b on the most recently used schedule. When it
// completes the solve it returns done with the solve's error; the
// factors are then left in stored row order, so f keeps no reusable
// factorization (f.n is 0). Otherwise k is the first column it could
// not replay, and lu, x, piv and sign hold the plain kernel's state at
// the start of column k.
//
//hybrid:noalloc
func (f *LU) replay(x, b []float64) (k int, done bool, err error) {
	r := &f.rp
	s := r.scheds[0]
	n, lu, y := f.n, f.lu, r.y
	copy(y, b)
cols:
	for k = 0; k < n; k++ {
		c := &s.cols[k]
		pk := int(c.pivot)
		pivot := lu[pk]
		ap := math.Abs(pivot)
		if !(ap > 0 && ap <= math.MaxFloat64) {
			break
		}
		for _, o := range c.before {
			if !(ap > math.Abs(lu[o])) {
				break cols
			}
		}
		for _, o := range c.after {
			if !(ap >= math.Abs(lu[o])) {
				break cols
			}
		}
		yk := y[c.row]
		if !(math.Abs(yk) <= math.MaxFloat64) {
			break
		}
		// Most MNA pivot rows have nothing right of the pivot to
		// update (a source branch row, a node's last column): their
		// columns take a loop without the update.
		if upd := c.upd; len(upd) == 0 {
			for _, i := range c.elim {
				o := int(i)*n + k
				l := lu[o] / pivot
				lu[o] = l
				y[i] -= l * yk
			}
		} else {
			for _, i := range c.elim {
				o := int(i)*n + k
				l := lu[o] / pivot
				lu[o] = l
				if l != 0 {
					for _, d := range upd {
						lu[o+int(d)] -= l * lu[pk+int(d)]
					}
				}
				y[i] -= l * yk
			}
		}
	}
	if k < n {
		r.resumed++
		f.unpermuted(s, k, x)
		return k, false, nil
	}
	r.replayed++
	for i := n - 1; i >= 0; i-- {
		c := &s.cols[i]
		row := lu[int(c.row)*n:]
		row = row[:n]
		sum := y[c.row]
		for _, j := range c.back {
			sum -= row[j] * x[j]
		}
		xi := sum / row[i] // a confirmed, nonzero pivot
		x[i] = xi
		if !(math.Abs(xi) <= math.MaxFloat64) {
			// The rows above would multiply it by their structural
			// zeros: finish with the plain loop.
			f.unpermuted(s, n, x[:i])
			return n, true, f.backSubstitute(i-1, x)
		}
	}
	f.n = 0
	return n, true, nil
}

// unpermuted moves the replay's state into the plain kernel's layout
// at the start of column k: the row swaps of columns 0..k-1 are applied
// to lu and to the carried right-hand side, which lands in x (whose
// length may stop short of n), and piv and sign are set to match.
func (f *LU) unpermuted(s *schedule, k int, x []float64) {
	n, lu, y, piv := f.n, f.lu, f.rp.y, f.piv
	for i := range piv {
		piv[i] = i
	}
	f.sign = 1
	for j, p := range s.seq[:k] {
		f.rp.seq[j] = p
		if p := int(p); p != j {
			rp, rj := lu[p*n:p*n+n], lu[j*n:j*n+n]
			for c := range rj {
				rp[c], rj[c] = rj[c], rp[c]
			}
			y[p], y[j] = y[j], y[p]
			piv[p], piv[j] = piv[j], piv[p]
			f.sign = -f.sign
		}
	}
	copy(x, y)
}

// adopt makes the sequence the plain kernel just completed the most
// recently used schedule, learning it if it is new.
func (f *LU) adopt() {
	r := &f.rp
	if r.mask == nil || r.n != f.n {
		return
	}
	for i, s := range r.scheds {
		if slices.Equal(s.seq, r.seq) {
			copy(r.scheds[1:i+1], r.scheds[:i])
			r.scheds[0] = s
			return
		}
	}
	r.learn()
}

// learn runs the symbolic elimination of the pivot sequence r.seq over
// the pattern and adds its schedule in front, dropping the least
// recently used one beyond maxSchedules. A sequence that pivots on a
// structural zero means the pattern contract is broken: replay is then
// turned off for good.
//
//hybrid:alloc-ok learning a new pivot sequence builds its schedule once; every later call replays it
func (r *replayState) learn() {
	n := r.n
	nz := slices.Clone(r.mask) // by position, rows swapped as the plain kernel does
	piv := make([]int, n)      // stored row of each position
	s := &schedule{seq: slices.Clone(r.seq), cols: make([]replayColumn, n)}
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		c := &s.cols[k]
		p := int(s.seq[k])
		if !nz[p*n+k] {
			r.mask, r.scheds = nil, nil
			return
		}
		for i := k; i < n; i++ {
			switch {
			case i == p || !nz[i*n+k]:
			case i < p:
				c.before = append(c.before, int32(piv[i]*n+k))
			default:
				c.after = append(c.after, int32(piv[i]*n+k))
			}
		}
		for j := 0; j < n; j++ {
			nz[k*n+j], nz[p*n+j] = nz[p*n+j], nz[k*n+j]
		}
		piv[k], piv[p] = piv[p], piv[k]
		c.row, c.pivot = int32(piv[k]), int32(piv[k]*n+k)
		for j := k + 1; j < n; j++ {
			if nz[k*n+j] {
				c.upd = append(c.upd, int32(j-k))
			}
		}
		for i := k + 1; i < n; i++ {
			if !nz[i*n+k] {
				continue
			}
			c.elim = append(c.elim, int32(piv[i]))
			for _, d := range c.upd {
				nz[i*n+k+int(d)] = true // fill
			}
		}
	}
	for k := range s.cols {
		for j := k + 1; j < n; j++ {
			if nz[k*n+j] {
				s.cols[k].back = append(s.cols[k].back, int32(j))
			}
		}
	}
	if len(r.scheds) < maxSchedules {
		r.scheds = append(r.scheds, nil)
	}
	copy(r.scheds[1:], r.scheds)
	r.scheds[0] = s
	r.learned++
}
