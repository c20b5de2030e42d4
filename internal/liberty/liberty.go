package liberty

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/spice"
)

// Table is a two-dimensional NLDM lookup table indexed by input slew
// (rows) and output load (columns), with bilinear interpolation and clamped
// extrapolation.
type Table struct {
	Slews  []float64 // seconds, ascending
	Loads  []float64 // farads, ascending
	Values [][]float64
}

// Lookup interpolates the table at (slew, load). Queries outside the
// characterized grid clamp to the boundary (the standard signoff-safe
// behaviour for our purposes).
func (t *Table) Lookup(slew, load float64) float64 {
	i0, i1, fx := bracket(t.Slews, slew)
	j0, j1, fy := bracket(t.Loads, load)
	v00 := t.Values[i0][j0]
	v01 := t.Values[i0][j1]
	v10 := t.Values[i1][j0]
	v11 := t.Values[i1][j1]
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

func bracket(xs []float64, x float64) (int, int, float64) {
	n := len(xs)
	if n == 1 || x <= xs[0] {
		return 0, 0, 0
	}
	if x >= xs[n-1] {
		return n - 1, n - 1, 0
	}
	i := sort.SearchFloat64s(xs, x)
	if xs[i] == x {
		return i, i, 0
	}
	lo, hi := i-1, i
	f := (x - xs[lo]) / (xs[hi] - xs[lo])
	return lo, hi, f
}

// TimingArc is one characterized (input pin, input edge) arc of a cell.
type TimingArc struct {
	Pin     int
	InRise  bool // input transition direction
	OutRise bool // resulting output transition direction
	Delay   *Table
	OutSlew *Table
	Energy  *Table
}

// Cell is one characterized library cell.
type Cell struct {
	Name        string
	Inputs      int
	PinCaps     []float64 // farads per input pin
	Arcs        []TimingArc
	LeakageAvg  float64 // average over all input states, watts at VDD
	LeakageMax  float64
	Transistors int
}

// Arc returns the timing arc for (pin, input edge).
func (c *Cell) Arc(pin int, inRise bool) (*TimingArc, bool) {
	for i := range c.Arcs {
		if c.Arcs[i].Pin == pin && c.Arcs[i].InRise == inRise {
			return &c.Arcs[i], true
		}
	}
	return nil, false
}

// Library is a characterized standard-cell library at one operating corner.
type Library struct {
	Name   string
	Params spice.Params
	Cells  map[string]*Cell
	// Characterization cost accounting (experiment T1 compares this against
	// the ML surrogate's cost).
	SpiceRuns  int
	SpiceSteps int
}

// Cell returns the named cell.
func (l *Library) Cell(name string) (*Cell, bool) {
	c, ok := l.Cells[name]
	return c, ok
}

// CellNames returns all cell names sorted.
func (l *Library) CellNames() []string {
	names := make([]string, 0, len(l.Cells))
	for n := range l.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Grid is the characterization grid specification.
type Grid struct {
	Slews []float64
	Loads []float64
}

// DefaultGrid returns the standard 7×7 NLDM grid.
func DefaultGrid() Grid {
	return Grid{
		Slews: []float64{2e-12, 5e-12, 10e-12, 20e-12, 40e-12, 80e-12, 160e-12},
		Loads: []float64{0.5e-15, 1e-15, 2e-15, 4e-15, 8e-15, 16e-15, 32e-15},
	}
}

// CoarseGrid returns a 3×3 grid for fast tests.
func CoarseGrid() Grid {
	return Grid{
		Slews: []float64{5e-12, 20e-12, 80e-12},
		Loads: []float64{1e-15, 4e-15, 16e-15},
	}
}

// arcUnit is one independent characterization work item: the full slew×load
// grid of a single (cell, pin, input-edge) timing arc. Units only write
// their own arc tables and local counters, so they parallelize freely.
type arcUnit struct {
	cell        *spice.Cell
	out         *Cell // destination library cell
	arcIdx      int
	pin         int
	inRise      bool
	side        []bool
	runs, steps int
}

// Characterize builds a library by running the transistor-level simulator
// over every (cell, pin, edge, slew, load) point of the grid, exactly like
// a commercial characterization flow. The passed params carry the corner:
// temperature, supply, and aging ΔVth. It fans the sweep out over a
// bounded worker pool (workers <= 0 selects GOMAXPROCS). The
// characterization is deterministic: the transistor-level simulator has no
// randomness and every (cell, arc) unit is independent, with cost counters
// accumulated in unit order after the fan-out, so the resulting library is
// bit-identical for any worker count.
func Characterize(name string, cells []*spice.Cell, p spice.Params, grid Grid, workers int) (*Library, error) {
	lib := &Library{Name: name, Params: p, Cells: make(map[string]*Cell, len(cells))}
	// Serial skeleton pass: resolve arcs and pin data, building the flat
	// unit list the pool consumes. This is pure logic evaluation — cheap
	// next to the transient sweeps.
	var units []*arcUnit
	for _, sc := range cells {
		lc := &Cell{
			Name:        sc.Name,
			Inputs:      sc.NumInputs,
			PinCaps:     make([]float64, sc.NumInputs),
			Transistors: sc.Transistors(),
		}
		for pin := 0; pin < sc.NumInputs; pin++ {
			lc.PinCaps[pin] = sc.PinCap(pin)
		}
		for pin := 0; pin < sc.NumInputs; pin++ {
			side, ok := spice.SensitizingSideInputs(sc, pin)
			if !ok {
				return nil, fmt.Errorf("liberty: cell %s: pin %d not sensitizable", sc.Name, pin)
			}
			for _, inRise := range []bool{true, false} {
				arc := TimingArc{Pin: pin, InRise: inRise}
				// Output direction from the digital function.
				in := append([]bool(nil), side...)
				in[pin] = inRise
				arc.OutRise = sc.Logic(in)
				units = append(units, &arcUnit{
					cell: sc, out: lc, arcIdx: len(lc.Arcs),
					pin: pin, inRise: inRise, side: side,
				})
				lc.Arcs = append(lc.Arcs, arc)
			}
		}
		characterizeLeakage(sc, p, lc)
		lib.Cells[sc.Name] = lc
	}

	err := parallel.For(workers, len(units), func(k int) error {
		u := units[k]
		arc := &u.out.Arcs[u.arcIdx]
		arc.Delay = newTable(grid)
		arc.OutSlew = newTable(grid)
		arc.Energy = newTable(grid)
		for i, slew := range grid.Slews {
			for j, load := range grid.Loads {
				m, err := spice.Simulate(u.cell, p, spice.Arc{
					Pin: u.pin, RiseIn: u.inRise, InSlew: slew,
					LoadCap: load, SideInputs: u.side,
				})
				if err != nil {
					return fmt.Errorf("liberty: cell %s: %w", u.cell.Name, err)
				}
				u.runs++
				u.steps += m.Steps
				arc.Delay.Values[i][j] = m.Delay
				arc.OutSlew.Values[i][j] = m.Slew
				arc.Energy.Values[i][j] = m.Energy
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic cost accounting: sum per-unit counters in unit order.
	for _, u := range units {
		lib.SpiceRuns += u.runs
		lib.SpiceSteps += u.steps
	}
	return lib, nil
}

// characterizeLeakage fills the state-dependent leakage summary over all
// input vectors of one cell.
func characterizeLeakage(sc *spice.Cell, p spice.Params, lc *Cell) {
	n := sc.NumInputs
	total, worst := 0.0, 0.0
	states := 1 << uint(n)
	for v := 0; v < states; v++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = v>>uint(i)&1 == 1
		}
		leak := spice.Leakage(sc, p, in) * p.VDD
		total += leak
		if leak > worst {
			worst = leak
		}
	}
	lc.LeakageAvg = total / float64(states)
	lc.LeakageMax = worst
}

func newTable(g Grid) *Table {
	t := &Table{Slews: g.Slews, Loads: g.Loads}
	t.Values = make([][]float64, len(g.Slews))
	for i := range t.Values {
		t.Values[i] = make([]float64, len(g.Loads))
	}
	return t
}

// DelayHistogram aggregates every delay value stored in the library —
// the data behind the "cell delay distribution" style figure.
func (l *Library) DelayHistogram() []float64 {
	var out []float64
	for _, name := range l.CellNames() {
		c := l.Cells[name]
		for _, arc := range c.Arcs {
			for _, row := range arc.Delay.Values {
				out = append(out, row...)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// TotalLeakage sums average leakage across all cells (for corner reports).
func (l *Library) TotalLeakage() float64 {
	t := 0.0
	for _, c := range l.Cells {
		t += c.LeakageAvg
	}
	return t
}

// Summary describes a library corner in one line.
func (l *Library) Summary() string {
	hist := l.DelayHistogram()
	med := math.NaN()
	if len(hist) > 0 {
		med = hist[len(hist)/2]
	}
	return fmt.Sprintf("%s: %d cells, %d arcs points, median delay %.1f ps, total avg leakage %.3g W",
		l.Name, len(l.Cells), l.SpiceRuns, med*1e12, l.TotalLeakage())
}
