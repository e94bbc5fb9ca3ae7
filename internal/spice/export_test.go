package spice

import "math/rand"

// stampPattern is the structural pattern the solver derived from device
// topology before devices bound their own cells: the branch entries of
// every voltage source, nothing for current sources, and the node block
// of every other device. It is the reference the bound pattern must
// equal as a set.
func (c *Circuit) stampPattern() []int32 {
	n := c.unknowns()
	var pattern []int32
	seen := make([]bool, n*n)
	add := func(i, j int) {
		if i >= 0 && j >= 0 && !seen[i*n+j] {
			seen[i*n+j] = true
			pattern = append(pattern, int32(i*n+j))
		}
	}
	for _, d := range c.devices {
		switch dev := d.(type) {
		case *VSource:
			ib := c.branchVar(dev.branch)
			ip, im := nodeVar(dev.plus), nodeVar(dev.minus)
			add(ip, ib)
			add(im, ib)
			add(ib, ip)
			add(ib, im)
		case *ISource:
			// RHS only.
		default:
			nodes := d.Nodes()
			for _, a := range nodes {
				for _, b := range nodes {
					add(nodeVar(a), nodeVar(b))
				}
			}
		}
	}
	return pattern
}

// NodeBlockPattern returns the reference pattern of c.
func NodeBlockPattern(c *Circuit) []int32 { return c.stampPattern() }

// StampCoverage binds c in a fresh solver and returns its bound
// pattern. It then stamps every device, and the gmin shunts on the
// node diagonals, at random iterates and source values in DC,
// backward-Euler and trapezoidal mode, each time into a Jacobian whose
// cells outside the bound pattern and the node diagonals hold
// sentinel, and returns the offsets of the sentinel cells that changed.
func StampCoverage(c *Circuit, rng *rand.Rand, sentinel float64) (pattern, strays []int32, err error) {
	s, err := NewSolver(c)
	if err != nil {
		return nil, nil, err
	}
	s.ensure()
	n, nv := c.unknowns(), c.NumNodes()-1
	live := make([]bool, n*n)
	for _, off := range s.pattern {
		live[off] = true
	}
	for i := 0; i < nv; i++ {
		live[i*n+i] = true
	}
	ctx := &s.ctx
	modes := []struct {
		dc     bool
		method IntegrationMethod
	}{{true, Trapezoidal}, {false, BackwardEuler}, {false, Trapezoidal}}
	for _, m := range modes {
		for k := 0; k < 4; k++ {
			ctx.DC, ctx.Method, ctx.Dt, ctx.capFresh = m.dc, m.method, 1e-12, true
			for i := range ctx.V {
				ctx.V[i] = 2 * rng.Float64()
			}
			for i := range s.srcVals {
				s.srcVals[i] = rng.Float64()
			}
			for off := range ctx.g[:n*n] {
				ctx.g[off] = sentinel
				if live[off] {
					ctx.g[off] = 0
				}
			}
			clear(ctx.rhs)
			for _, d := range c.devices {
				d.Stamp(ctx)
			}
			for i := 0; i < nv; i++ {
				ctx.g[i*n+i] += 1e-12
			}
			for off, v := range ctx.g[:n*n] {
				if !live[off] && v != sentinel {
					strays = append(strays, int32(off))
				}
			}
		}
	}
	return s.pattern, strays, nil
}
