package la

import (
	"fmt"
	"math"
)

// SymEigen is the eigen-decomposition of a real symmetric matrix:
// S = V * diag(Lambda) * V^T with orthonormal columns in V.
type SymEigen struct {
	Lambda []float64 // eigenvalues
	V      *Matrix   // column k is the eigenvector of Lambda[k]
}

// JacobiEigen computes the eigen-decomposition of a symmetric matrix by
// the cyclic Jacobi rotation method. The input is not modified. The
// method is unconditionally stable and, for the tiny (<= 8x8) RC system
// matrices in this repository, easily fast enough.
func JacobiEigen(s *Matrix, tol float64) (SymEigen, error) {
	if s.Rows != s.Cols {
		return SymEigen{}, fmt.Errorf("la: JacobiEigen needs a square matrix, got %dx%d", s.Rows, s.Cols)
	}
	n := s.Rows
	// Symmetry check (tolerant: inputs come from symmetrized products).
	scale := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			scale = math.Max(scale, math.Abs(s.At(i, j)))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(s.At(i, j)-s.At(j, i)) > 1e-8*(scale+1) {
				return SymEigen{}, fmt.Errorf("la: matrix not symmetric at (%d,%d): %g vs %g",
					i, j, s.At(i, j), s.At(j, i))
			}
		}
	}
	if tol <= 0 {
		tol = 1e-14
	}
	a := s.Clone()
	// Symmetrize exactly to keep rotations consistent.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := 0.5 * (a.At(i, j) + a.At(j, i))
			a.Set(i, j, m)
			a.Set(j, i, m)
		}
	}
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	offdiag := func() float64 {
		sum := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum += float64(a.At(i, j) * a.At(i, j))
			}
		}
		return math.Sqrt(sum)
	}
	for sweep := 0; sweep < 100; sweep++ {
		if offdiag() <= tol*(scale+1) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := a.At(p, p)
				aqq := a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				sn := t * c
				// Apply the rotation A <- J^T A J on rows/cols p, q.
				for k := 0; k < n; k++ {
					akp := a.At(k, p)
					akq := a.At(k, q)
					a.Set(k, p, float64(c*akp)-float64(sn*akq))
					a.Set(k, q, float64(sn*akp)+float64(c*akq))
				}
				for k := 0; k < n; k++ {
					apk := a.At(p, k)
					aqk := a.At(q, k)
					a.Set(p, k, float64(c*apk)-float64(sn*aqk))
					a.Set(q, k, float64(sn*apk)+float64(c*aqk))
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(sn*vkq))
					v.Set(k, q, float64(sn*vkp)+float64(c*vkq))
				}
			}
		}
	}
	out := SymEigen{Lambda: make([]float64, n), V: v}
	for i := 0; i < n; i++ {
		out.Lambda[i] = a.At(i, i)
	}
	return out, nil
}
