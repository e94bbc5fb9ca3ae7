package sparse

import (
	"math"
	"testing"

	"hybriddelay/internal/la"
)

// decodeSystem builds a diagonally dominant system from raw fuzz
// bytes: one byte per cell decides structure and value, and the
// diagonal is reinforced by each row's off-diagonal mass so the
// admissibility and tolerance checks below are meaningful on every
// generated input.
func decodeSystem(data []byte) (*la.Matrix, []int32, []float64, bool) {
	if len(data) < 2 {
		return nil, nil, nil, false
	}
	n := 1 + int(data[0])%12
	data = data[1:]
	need := n*n + n
	if len(data) < need {
		return nil, nil, nil, false
	}
	a := la.NewMatrix(n, n)
	var pattern []int32
	for i := 0; i < n; i++ {
		rowMass := 0.0
		for j := 0; j < n; j++ {
			bb := data[i*n+j]
			if i != j && bb&1 == 0 {
				continue // structurally absent
			}
			v := float64(int8(bb)) / 16
			if i != j {
				a.Set(i, j, v)
				pattern = append(pattern, int32(i*n+j))
				rowMass += math.Abs(v)
			}
		}
		d := float64(int8(data[i*n+i])) / 16
		a.Set(i, i, d+math.Copysign(rowMass+1, d+0.5))
		pattern = append(pattern, int32(i*n+i))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(int8(data[n*n+i])) / 16
	}
	return a, pattern, b, true
}

// FuzzFactorSolve round-trips random sparsity patterns through the
// symbolic and numeric phases and cross-checks the solution against
// the dense partial-pivot reference within tolerance.
func FuzzFactorSolve(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 40, 200})
	f.Add([]byte{7,
		1, 0, 1, 0, 1, 0, 1,
		0, 3, 1, 0, 0, 0, 0,
		1, 1, 9, 1, 0, 0, 1,
		0, 0, 1, 200, 0, 1, 0,
		1, 0, 0, 0, 17, 0, 1,
		0, 0, 0, 1, 0, 33, 1,
		1, 0, 1, 0, 1, 1, 250,
		1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, pattern, b, ok := decodeSystem(data)
		if !ok {
			return
		}
		n := a.Rows
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			// Diagonal dominance should preclude singularity; an error
			// here means the generator and pilot disagree structurally.
			t.Fatalf("Analyze failed on dominant system: %v", err)
		}
		var lu la.LU
		want := make([]float64, n)
		if err := lu.FactorSolveInPlace(a.Clone(), want, b); err != nil {
			t.Fatalf("dense reference failed: %v", err)
		}
		x := make([]float64, n)
		nu, layout := compile(t, sym, pattern)
		if err := nu.FactorSolve(pack(nu, layout, a), x, b); err != nil {
			t.Fatalf("FactorSolve failed: %v", err)
		}
		for i := range x {
			if d := math.Abs(x[i] - want[i]); d > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("x[%d] = %g, dense %g (diff %g)", i, x[i], want[i], d)
			}
		}
	})
}
