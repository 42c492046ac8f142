package thermal

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// TopBoundary is the convective boundary condition on the stack's top
// surface, supplied per cell by the cooling model: T_fluid and heat
// transfer coefficient h. Cells with H=0 are adiabatic on top.
type TopBoundary struct {
	// H is the per-cell heat transfer coefficient (W/m²·K).
	H []float64
	// TFluid is the per-cell fluid temperature (°C).
	TFluid []float64
}

// UniformTop returns a spatially uniform top boundary.
func UniformTop(cells int, h, tFluid float64) TopBoundary {
	bc := TopBoundary{H: make([]float64, cells), TFluid: make([]float64, cells)}
	for i := range bc.H {
		bc.H[i] = h
		bc.TFluid[i] = tFluid
	}
	return bc
}

// Environment collects the secondary boundary conditions.
type Environment struct {
	// AmbientC is the board-side ambient temperature (°C).
	AmbientC float64
	// BottomH is the weak convective coefficient on the stack bottom
	// (board conduction + enclosure air), W/m²·K.
	BottomH float64
}

// DefaultEnvironment matches a server enclosure: 45 °C local ambient and a
// weak 10 W/m²·K board-side path.
func DefaultEnvironment() Environment { return Environment{AmbientC: 45, BottomH: 10} }

// Model is the assembled RC network for a Stack. It precomputes all
// inter-cell conductances; boundary conductances vary per solve.
type Model struct {
	Stack *Stack
	Env   Environment

	nx, ny, nl int
	cells      int // per layer
	n          int // total unknowns

	// Conductances (W/K). gx[idx] couples (l,ix,iy)-(l,ix+1,iy) and is
	// stored at the left cell; gy couples to (l,ix,iy+1); gz[l*cells+c]
	// couples layer l to l+1 at cell c.
	gx, gy, gz []float64
	// capAll is per-unknown heat capacity (J/K).
	capAll []float64
	// gBottom couples die-layer cells to ambient.
	gBottom []float64
	// topHalf is the conduction half-resistance (K/W)⁻¹ precursor for the
	// top layer: per-cell conductance from cell center to the top face.
	topHalf []float64
}

// NewModel assembles the RC network for the stack.
func NewModel(stack *Stack, env Environment) (*Model, error) {
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	g := stack.Grid
	m := &Model{
		Stack: stack,
		Env:   env,
		nx:    g.NX, ny: g.NY, nl: len(stack.Layers),
		cells: g.Cells(),
	}
	m.n = m.cells * m.nl
	dx, dy := g.DX, g.DY

	// Per-cell material lookup.
	k := make([][]float64, m.nl)
	for l, spec := range stack.Layers {
		k[l] = make([]float64, m.cells)
		capl := make([]float64, m.cells)
		for iy := 0; iy < m.ny; iy++ {
			for ix := 0; ix < m.nx; ix++ {
				mat := materialAt(spec, g, ix, iy)
				c := g.Index(ix, iy)
				k[l][c] = mat.K
				capl[c] = mat.VolHeatCap * dx * dy * spec.Thickness
			}
		}
		m.capAll = append(m.capAll, capl...)
	}

	harmonic := func(k1, k2 float64) float64 {
		if k1 <= 0 || k2 <= 0 {
			return 0
		}
		return 2 * k1 * k2 / (k1 + k2)
	}

	// Lateral conductances within each layer.
	m.gx = make([]float64, m.n)
	m.gy = make([]float64, m.n)
	for l, spec := range stack.Layers {
		t := spec.Thickness
		for iy := 0; iy < m.ny; iy++ {
			for ix := 0; ix < m.nx; ix++ {
				c := g.Index(ix, iy)
				if ix+1 < m.nx {
					ke := harmonic(k[l][c], k[l][g.Index(ix+1, iy)])
					m.gx[l*m.cells+c] = ke * t * dy / dx
				}
				if iy+1 < m.ny {
					ke := harmonic(k[l][c], k[l][g.Index(ix, iy+1)])
					m.gy[l*m.cells+c] = ke * t * dx / dy
				}
			}
		}
	}

	// Vertical conductances between consecutive layers: series of the two
	// half-layer resistances through the shared face.
	if m.nl > 1 {
		m.gz = make([]float64, (m.nl-1)*m.cells)
		area := dx * dy
		for l := 0; l < m.nl-1; l++ {
			t0 := stack.Layers[l].Thickness
			t1 := stack.Layers[l+1].Thickness
			for c := 0; c < m.cells; c++ {
				r := t0/(2*k[l][c]) + t1/(2*k[l+1][c])
				m.gz[l*m.cells+c] = area / r
			}
		}
	}

	// Bottom boundary on layer 0 (board side).
	m.gBottom = make([]float64, m.cells)
	area := dx * dy
	t0 := stack.Layers[0].Thickness
	for c := 0; c < m.cells; c++ {
		if env.BottomH > 0 {
			r := t0/(2*k[0][c]) + 1/env.BottomH
			m.gBottom[c] = area / r
		}
	}

	// Conduction from the top layer's cell center to its top face; the
	// convective boundary is composed in series with this per solve.
	m.topHalf = make([]float64, m.cells)
	tl := stack.Layers[m.nl-1].Thickness
	for c := 0; c < m.cells; c++ {
		m.topHalf[c] = 2 * k[m.nl-1][c] * area / tl
	}

	return m, nil
}

// Cells returns the number of cells per layer.
func (m *Model) Cells() int { return m.cells }

// Layers returns the number of layers.
func (m *Model) Layers() int { return m.nl }

// Grid returns the discretization grid.
func (m *Model) Grid() floorplan.Grid { return m.Stack.Grid }

// topG composes the convective top boundary with the half-layer conduction
// for cell c, returning the total conductance to the fluid (W/K).
func (m *Model) topG(bc TopBoundary, c int) float64 {
	h := bc.H[c]
	if h <= 0 {
		return 0
	}
	area := m.Stack.Grid.DX * m.Stack.Grid.DY
	gConv := h * area
	// Series with conduction from cell center to the wetted face.
	return m.topHalf[c] * gConv / (m.topHalf[c] + gConv)
}

// newStencil returns the model's fine-level operator stencil —
// linalg.Operator / Smoother for A·T where A is the
// steady conduction matrix plus boundary and (optionally) capacitive
// diagonal terms. The conductances alias the model; the diagonal buffers
// are freshly allocated and (re)assembled per solve by fillOperator.
func (m *Model) newStencil() stencil {
	return stencil{
		nx: m.nx, ny: m.ny, nl: m.nl, cells: m.cells, n: m.n,
		gx: m.gx, gy: m.gy, gz: m.gz,
		diag:    make(linalg.Vector, m.n),
		invDiag: make(linalg.Vector, m.n),
	}
}

// fillOperator (re)assembles the diagonal for the given boundary and
// optional capacitive term (capOverDt > 0 for transient steps) into a
// stencil whose vectors are already sized, allocating nothing. Every
// element is overwritten, so a reused stencil carries no state between
// solves.
func (m *Model) fillOperator(op *stencil, bc TopBoundary, capOverDt float64) {
	nx, cells := m.nx, m.cells
	for l := 0; l < m.nl; l++ {
		base := l * cells
		for c := 0; c < cells; c++ {
			i := base + c
			var d float64
			if g := m.gx[i]; g != 0 {
				d += g
			}
			if c%nx != 0 {
				d += m.gx[i-1]
			}
			if g := m.gy[i]; g != 0 {
				d += g
			}
			if c >= nx {
				d += m.gy[i-nx]
			}
			if l < m.nl-1 {
				d += m.gz[i]
			}
			if l > 0 {
				d += m.gz[i-cells]
			}
			if l == 0 {
				d += m.gBottom[c]
			}
			if l == m.nl-1 {
				d += m.topG(bc, c)
			}
			if capOverDt > 0 {
				d += m.capAll[i] * capOverDt
			}
			op.diag[i] = d
			op.invDiag[i] = 1 / d
		}
	}
}

// rhsLayersInto assembles the right-hand side into a caller-owned vector
// of length n, overwriting it completely: the injected power plus the
// boundary sources (board-side ambient on layer 0, the convective top
// fluid). The injection is a dense per-layer table: layers[l] is layer
// l's per-cell watts, nil entries inject nothing, and the table may be
// shorter than the stack.
func (m *Model) rhsLayersInto(b linalg.Vector, layers [][]float64, bc TopBoundary) error {
	if len(layers) > m.nl {
		return fmt.Errorf("thermal: power table has %d layers, stack has %d", len(layers), m.nl)
	}
	b.Fill(0)
	for l, p := range layers {
		if p == nil {
			continue
		}
		if len(p) != m.cells {
			return fmt.Errorf("thermal: layer %d power has %d cells, want %d", l, len(p), m.cells)
		}
		base := l * m.cells
		for c, w := range p {
			b[base+c] += w
		}
	}
	for c := 0; c < m.cells; c++ {
		b[c] += m.gBottom[c] * m.Env.AmbientC
	}
	top := (m.nl - 1) * m.cells
	for c := 0; c < m.cells; c++ {
		if g := m.topG(bc, c); g != 0 {
			b[top+c] += g * bc.TFluid[c]
		}
	}
	return nil
}

func (m *Model) checkBC(bc TopBoundary) error {
	if len(bc.H) != m.cells || len(bc.TFluid) != m.cells {
		return fmt.Errorf("thermal: boundary has %d/%d cells, want %d", len(bc.H), len(bc.TFluid), m.cells)
	}
	return nil
}

// NewField returns a zero-temperature field sized for the model.
func (m *Model) NewField() *Field {
	return &Field{model: m, T: make(linalg.Vector, m.n)}
}

// UniformField returns a field at a constant temperature, for transient
// initial conditions.
func (m *Model) UniformField(tC float64) *Field {
	f := m.NewField()
	f.T.Fill(tC)
	return f
}
