package la

import (
	"fmt"
	"math"
)

// Mat2 is a 2x2 matrix, used by the hybrid model's mode systems.
type Mat2 struct {
	A11, A12 float64
	A21, A22 float64
}

// Vec2 is a 2-vector (V_N, V_O) in the hybrid model.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
//
//hybrid:alloc-ok returns a value-type literal, which never reaches the heap
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
//
//hybrid:alloc-ok returns a value-type literal, which never reaches the heap
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s*v.
//
//hybrid:alloc-ok returns a value-type literal, which never reaches the heap
func (v Vec2) Scale(s float64) Vec2 { return Vec2{float64(s * v.X), float64(s * v.Y)} }

// Norm returns the Euclidean norm of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// MulVec computes m*v.
//
//hybrid:alloc-ok returns a value-type literal, which never reaches the heap
func (m Mat2) MulVec(v Vec2) Vec2 {
	return Vec2{float64(m.A11*v.X) + float64(m.A12*v.Y), float64(m.A21*v.X) + float64(m.A22*v.Y)}
}

// Mul computes m*n.
func (m Mat2) Mul(n Mat2) Mat2 {
	return Mat2{
		m.A11*n.A11 + m.A12*n.A21, m.A11*n.A12 + m.A12*n.A22,
		m.A21*n.A11 + m.A22*n.A21, m.A21*n.A12 + m.A22*n.A22,
	}
}

// Scale returns s*m.
func (m Mat2) Scale(s float64) Mat2 {
	return Mat2{s * m.A11, s * m.A12, s * m.A21, s * m.A22}
}

// AddMat returns m + n.
func (m Mat2) AddMat(n Mat2) Mat2 {
	return Mat2{m.A11 + n.A11, m.A12 + n.A12, m.A21 + n.A21, m.A22 + n.A22}
}

// Det returns the determinant.
func (m Mat2) Det() float64 { return float64(m.A11*m.A22) - float64(m.A12*m.A21) }

// Trace returns the trace.
func (m Mat2) Trace() float64 { return m.A11 + m.A22 }

// Solve solves m*x = b for a nonsingular 2x2 system.
//
//hybrid:alloc-ok returns a value-type literal, which never reaches the heap
func (m Mat2) Solve(b Vec2) (Vec2, error) {
	d := m.Det()
	if d == 0 {
		return Vec2{}, ErrSingular
	}
	return Vec2{
		(float64(b.X*m.A22) - float64(b.Y*m.A12)) / d,
		(float64(m.A11*b.Y) - float64(m.A21*b.X)) / d,
	}, nil
}

// Eigen2 is the eigen-decomposition of a 2x2 matrix with real eigenvalues.
// The RC mode matrices of the hybrid model always have real eigenvalues
// (they are similar to symmetric matrices via a positive diagonal scaling),
// so complex pairs are reported as an error rather than handled.
type Eigen2 struct {
	// Lambda1, Lambda2 are the eigenvalues, sorted so Lambda1 >= Lambda2
	// (for stable RC systems both are <= 0 and Lambda1 is the slow pole).
	Lambda1, Lambda2 float64
	// V1, V2 are the corresponding eigenvectors (not normalized).
	V1, V2 Vec2
	// Defective reports a repeated eigenvalue without two independent
	// eigenvectors; callers must use the Jordan-form propagator.
	Defective bool
}

// eigenTol is the relative tolerance used to decide whether the
// discriminant of the characteristic polynomial is zero.
const eigenTol = 1e-12

// EigenDecompose2 computes the real eigen-decomposition of m.
// It returns an error if the eigenvalues are complex, which cannot happen
// for the passive RC circuits in this repository.
func EigenDecompose2(m Mat2) (Eigen2, error) {
	tr := m.Trace()
	det := m.Det()
	disc := tr*tr - 4*det
	scale := tr*tr + math.Abs(4*det)
	if disc < 0 {
		if -disc <= eigenTol*scale {
			disc = 0 // numerically repeated eigenvalue
		} else {
			return Eigen2{}, fmt.Errorf("la: complex eigenvalues (tr=%g det=%g disc=%g)", tr, det, disc)
		}
	}
	s := math.Sqrt(disc)
	l1 := (tr + s) / 2
	l2 := (tr - s) / 2
	e := Eigen2{Lambda1: l1, Lambda2: l2}
	if s <= eigenTol*math.Max(math.Abs(l1), 1) {
		// Repeated eigenvalue. If the matrix is already lambda*I it has a
		// full eigenspace; otherwise it is defective.
		offdiag := math.Abs(m.A12) + math.Abs(m.A21) + math.Abs(m.A11-m.A22)
		if offdiag <= eigenTol*(math.Abs(m.A11)+math.Abs(m.A22)+1) {
			e.V1 = Vec2{1, 0}
			e.V2 = Vec2{0, 1}
			return e, nil
		}
		e.Defective = true
		e.V1 = eigenvector(m, l1)
		return e, nil
	}
	e.V1 = eigenvector(m, l1)
	e.V2 = eigenvector(m, l2)
	return e, nil
}

// eigenvector returns a nonzero vector v with (m - lambda*I)v = 0.
func eigenvector(m Mat2, lambda float64) Vec2 {
	// Rows of (m - lambda I) are both orthogonal complements of the
	// eigenvector; pick the numerically larger one.
	r1 := Vec2{m.A11 - lambda, m.A12}
	r2 := Vec2{m.A21, m.A22 - lambda}
	var r Vec2
	if r1.Norm() >= r2.Norm() {
		r = r1
	} else {
		r = r2
	}
	if r.Norm() == 0 {
		return Vec2{1, 0} // m == lambda*I; any vector works
	}
	// v orthogonal to r: (-r.Y, r.X).
	return Vec2{-r.Y, r.X}
}

// Expm2 returns exp(m*t) computed from the eigen-decomposition, handling
// the defective (Jordan block) case. This is the propagator of the
// homogeneous system V' = m V.
func Expm2(m Mat2, t float64) (Mat2, error) {
	e, err := EigenDecompose2(m)
	if err != nil {
		return Mat2{}, err
	}
	if e.Defective {
		// exp(m t) = e^{lambda t} (I + (m - lambda I) t).
		l := e.Lambda1
		n := m.AddMat(Mat2{-l, 0, 0, -l}) // nilpotent part
		elt := math.Exp(l * t)
		return Mat2{1 + n.A11*t, n.A12 * t, n.A21 * t, 1 + n.A22*t}.Scale(elt), nil
	}
	// exp(m t) = P diag(e^{l1 t}, e^{l2 t}) P^{-1}.
	p := Mat2{e.V1.X, e.V2.X, e.V1.Y, e.V2.Y}
	d := p.Det()
	if d == 0 {
		return Mat2{}, ErrSingular
	}
	pinv := Mat2{p.A22 / d, -p.A12 / d, -p.A21 / d, p.A11 / d}
	el1 := math.Exp(e.Lambda1 * t)
	el2 := math.Exp(e.Lambda2 * t)
	mid := Mat2{el1, 0, 0, el2}
	return p.Mul(mid).Mul(pinv), nil
}
