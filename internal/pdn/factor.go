package pdn

import (
	"fmt"
	"math"
)

// The nodal matrix of a domain mesh is symmetric positive definite: a
// 5-point grid Laplacian plus the active regulators' source conductances
// on the diagonal. Its half-bandwidth is nx (row-major node numbering),
// so Mesh.Solve factors it as a banded Cholesky (O(n·bw²)) and solves
// the load vector by two banded substitutions (O(n·bw)).

// meshFactor is the banded Cholesky factor L of one mask's nodal matrix.
// Row-major half-band storage: l[i*(bw+1)+d] holds L[i][i-bw+d], so the
// diagonal of row i sits at d = bw.
type meshFactor struct {
	l []float64
}

// factorize computes the banded Cholesky factor of the nodal matrix for
// the given per-node source conductances. g is the grid segment
// conductance (1/SheetOhm).
func (m *Mesh) factorize(srcG []float64, g float64) (*meshFactor, error) {
	n := m.nx * m.ny
	bw := m.nx
	stride := bw + 1
	l := make([]float64, n*stride)

	// aij returns the nodal matrix entry A[i][j] for j <= i: the diagonal
	// carries the neighbor conductances plus the source conductance, and
	// the only sub-diagonal entries are the west (-g, same row) and south
	// (-g, row below) grid segments.
	aij := func(i, j int) float64 {
		if i == j {
			ix, iy := i%m.nx, i/m.nx
			var gsum float64
			if ix > 0 {
				gsum += g
			}
			if ix < m.nx-1 {
				gsum += g
			}
			if iy > 0 {
				gsum += g
			}
			if iy < m.ny-1 {
				gsum += g
			}
			return gsum + srcG[i]
		}
		if j == i-1 && i%m.nx != 0 {
			return -g
		}
		if j == i-bw {
			return -g
		}
		return 0
	}

	for i := 0; i < n; i++ {
		jmin := i - bw
		if jmin < 0 {
			jmin = 0
		}
		for j := jmin; j <= i; j++ {
			sum := aij(i, j)
			for k := jmin; k < j; k++ {
				sum -= l[i*stride+(bw-i+k)] * l[j*stride+(bw-j+k)]
			}
			if j < i {
				l[i*stride+(bw-i+j)] = sum / l[j*stride+bw]
				continue
			}
			if !(sum > 0) {
				// The matrix is SPD whenever any regulator is active; a
				// non-positive pivot means the mask left the grid floating.
				return nil, fmt.Errorf("pdn: mesh nodal matrix not positive definite at node %d", i)
			}
			l[i*stride+bw] = math.Sqrt(sum)
		}
	}
	return &meshFactor{l: l}, nil
}

// solve performs the two triangular substitutions L·Lᵀ·x = b, writing
// the solution over b.
func (f *meshFactor) solve(b []float64, nx int) {
	n := len(b)
	bw := nx
	stride := bw + 1
	l := f.l
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		kmin := i - bw
		if kmin < 0 {
			kmin = 0
		}
		sum := b[i]
		for k := kmin; k < i; k++ {
			sum -= l[i*stride+(bw-i+k)] * b[k]
		}
		b[i] = sum / l[i*stride+bw]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		kmax := i + bw
		if kmax > n-1 {
			kmax = n - 1
		}
		sum := b[i]
		for k := i + 1; k <= kmax; k++ {
			sum -= l[k*stride+(bw-k+i)] * b[k]
		}
		b[i] = sum / l[i*stride+bw]
	}
}
