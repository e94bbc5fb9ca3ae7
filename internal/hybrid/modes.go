package hybrid

import (
	"fmt"

	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
)

// Mode identifies one of the four input states (A, B) of the NOR gate.
type Mode int

// The four modes, named by the logical input values (A, B).
const (
	Mode00 Mode = iota // A=0, B=0: pMOS stack conducts, output charges
	Mode01             // A=0, B=1: N charges via R1, O discharges via R4
	Mode10             // A=1, B=0: N follows O via R2, O discharges via R3
	Mode11             // A=1, B=1: O discharges via R3 || R4, N isolated
)

// ModeOf returns the mode for logical input values a and b.
func ModeOf(a, b bool) Mode {
	switch {
	case !a && !b:
		return Mode00
	case !a && b:
		return Mode01
	case a && !b:
		return Mode10
	default:
		return Mode11
	}
}

// Inputs returns the logical input values of the mode.
func (m Mode) Inputs() (a, b bool) {
	switch m {
	case Mode00:
		return false, false
	case Mode01:
		return false, true
	case Mode10:
		return true, false
	default:
		return true, true
	}
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	a, b := m.Inputs()
	f := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return fmt.Sprintf("(%d,%d)", f(a), f(b))
}

// System returns the linear ODE system V' = A V + g of the mode, with
// V = (V_N, V_O), exactly as derived in paper §III.B-E.
func (p Params) System(m Mode) ode.Linear2 {
	switch m {
	case Mode11:
		// CN VN' = 0;  CO VO' = -VO (1/R3 + 1/R4).
		return ode.Linear2{
			A: la.Mat2{
				A11: 0, A12: 0,
				A21: 0, A22: -(1/(p.CO*p.R3) + 1/(p.CO*p.R4)),
			},
		}
	case Mode10:
		// CN VN' = -(VN - VO)/R2;
		// CO VO' = -VO/R3 + (VN - VO)/R2.
		return ode.Linear2{
			A: la.Mat2{
				A11: -1 / (p.CN * p.R2), A12: 1 / (p.CN * p.R2),
				A21: 1 / (p.CO * p.R2), A22: -(1/(p.CO*p.R2) + 1/(p.CO*p.R3)),
			},
		}
	case Mode01:
		// CN VN' = (VDD - VN)/R1;  CO VO' = -VO/R4.
		return ode.Linear2{
			A: la.Mat2{
				A11: -1 / (p.CN * p.R1), A12: 0,
				A21: 0, A22: -1 / (p.CO * p.R4),
			},
			G: la.Vec2{X: p.Supply.VDD / (p.CN * p.R1)},
		}
	case Mode00:
		// CN VN' = (VDD - VN)/R1 - (VN - VO)/R2;
		// CO VO' = (VN - VO)/R2.
		return ode.Linear2{
			A: la.Mat2{
				A11: -(1/(p.CN*p.R1) + 1/(p.CN*p.R2)), A12: 1 / (p.CN * p.R2),
				A21: 1 / (p.CO * p.R2), A22: -1 / (p.CO * p.R2),
			},
			G: la.Vec2{X: p.Supply.VDD / (p.CN * p.R1)},
		}
	}
	panic(fmt.Sprintf("hybrid: unknown mode %d", int(m)))
}

// ModeCoefficients holds the closed-form quantities the paper derives for
// the two coupled modes: alpha, beta and the eigenvalues lambda1/2 of the
// 2x2 system matrix, in the eigenvector normalization
// v_{1,2} = (1/(CN*R2), alpha +/- beta) used throughout §III and §V.
type ModeCoefficients struct {
	Alpha, Beta      float64
	Gamma            float64 // only defined for mode (0,0): lambda = gamma +/- beta
	Lambda1, Lambda2 float64
}

// Coefficients10 returns (alpha, beta, lambda_1,2) of mode (1,0) as given
// by paper equations (1)-(3).
func (p Params) Coefficients10() ModeCoefficients {
	coR3, cnR23 := float64(p.CO*p.R3), float64(p.CN*(p.R2+p.R3))
	alpha := (coR3 - cnR23) / (2 * p.CO * p.CN * p.R2 * p.R3)
	disc := float64((coR3+cnR23)*(coR3+cnR23)) - float64(4*p.CO*p.CN*p.R2*p.R3)
	beta := sqrtChecked(disc) / (2 * p.CO * p.CN * p.R2 * p.R3)
	base := -(coR3 + cnR23) / (2 * p.CO * p.CN * p.R2 * p.R3)
	return ModeCoefficients{
		Alpha:   alpha,
		Beta:    beta,
		Lambda1: base + beta,
		Lambda2: base - beta,
	}
}

// Coefficients00 returns (alpha, beta, gamma, lambda_1,2) of mode (0,0)
// as given by paper equations (4)-(7).
func (p Params) Coefficients00() ModeCoefficients {
	cnR1, coR12 := float64(p.CN*p.R1), float64(p.CO*(p.R1+p.R2))
	alpha := (coR12 - cnR1) / (2 * p.CO * p.CN * p.R1 * p.R2)
	disc := float64((cnR1+coR12)*(cnR1+coR12)) - float64(4*p.CO*p.CN*p.R1*p.R2)
	beta := sqrtChecked(disc) / (2 * p.CO * p.CN * p.R1 * p.R2)
	gamma := -(cnR1 + coR12) / (2 * p.CO * p.CN * p.R1 * p.R2)
	return ModeCoefficients{
		Alpha:   alpha,
		Beta:    beta,
		Gamma:   gamma,
		Lambda1: gamma + beta,
		Lambda2: gamma - beta,
	}
}

func sqrtChecked(x float64) float64 {
	if x < 0 {
		panic(fmt.Sprintf("hybrid: negative discriminant %g (RC systems always have real poles)", x))
	}
	return sqrt(x)
}
