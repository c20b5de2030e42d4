package liberty

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements serialization of characterized libraries to a
// Liberty (.lib) subset and a tolerant parser for it, so corners can be
// characterized once and cached on disk like a real PDK deliverable.
//
// Supported constructs: nested groups `name (arg) { ... }`, simple
// attributes `key : value ;` and complex attributes `key ("v1", "v2") ;`.
// Delays/slews are stored in ns and capacitances in pF per Liberty
// convention; the in-memory representation stays SI (seconds/farads).

const (
	timeUnit = 1e-9  // ns
	capUnit  = 1e-12 // pF
)

// WriteLib serializes the library in Liberty syntax.
func (l *Library) WriteLib(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "library (%s) {\n", l.Name)
	fmt.Fprintf(bw, "  time_unit : \"1ns\" ;\n")
	fmt.Fprintf(bw, "  capacitive_load_unit (1, pf) ;\n")
	fmt.Fprintf(bw, "  nom_temperature : %g ;\n", l.Params.TempK)
	fmt.Fprintf(bw, "  nom_voltage : %g ;\n", l.Params.VDD)
	for _, name := range l.CellNames() {
		c := l.Cells[name]
		fmt.Fprintf(bw, "  cell (%s) {\n", c.Name)
		fmt.Fprintf(bw, "    area : %d ;\n", c.Transistors)
		fmt.Fprintf(bw, "    cell_leakage_power : %s ;\n", fstr(c.LeakageAvg))
		fmt.Fprintf(bw, "    max_leakage_power : %s ;\n", fstr(c.LeakageMax))
		for pin := 0; pin < c.Inputs; pin++ {
			fmt.Fprintf(bw, "    pin (A%d) {\n", pin)
			fmt.Fprintf(bw, "      direction : input ;\n")
			fmt.Fprintf(bw, "      capacitance : %s ;\n", fstr(c.PinCaps[pin]/capUnit))
			fmt.Fprintf(bw, "    }\n")
		}
		fmt.Fprintf(bw, "    pin (Y) {\n")
		fmt.Fprintf(bw, "      direction : output ;\n")
		for i := range c.Arcs {
			arc := &c.Arcs[i]
			fmt.Fprintf(bw, "      timing () {\n")
			fmt.Fprintf(bw, "        related_pin : \"A%d\" ;\n", arc.Pin)
			sense := "negative_unate"
			if arc.InRise == arc.OutRise {
				sense = "positive_unate"
			}
			fmt.Fprintf(bw, "        timing_sense : %s ;\n", sense)
			edge := "fall"
			if arc.InRise {
				edge = "rise"
			}
			fmt.Fprintf(bw, "        input_edge : %s ;\n", edge)
			delayKey, slewKey := "cell_fall", "fall_transition"
			if arc.OutRise {
				delayKey, slewKey = "cell_rise", "rise_transition"
			}
			writeTable(bw, delayKey, arc.Delay, timeUnit)
			writeTable(bw, slewKey, arc.OutSlew, timeUnit)
			writeTable(bw, "internal_power", arc.Energy, 1)
			fmt.Fprintf(bw, "      }\n")
		}
		fmt.Fprintf(bw, "    }\n")
		fmt.Fprintf(bw, "  }\n")
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

func writeTable(w io.Writer, key string, t *Table, unit float64) {
	fmt.Fprintf(w, "        %s (grid) {\n", key)
	fmt.Fprintf(w, "          index_1 (\"%s\") ;\n", joinScaled(t.Slews, timeUnit))
	fmt.Fprintf(w, "          index_2 (\"%s\") ;\n", joinScaled(t.Loads, capUnit))
	rows := make([]string, len(t.Values))
	for i, row := range t.Values {
		rows[i] = joinScaled(row, unit)
	}
	fmt.Fprintf(w, "          values (\"%s\") ;\n", strings.Join(rows, "\", \""))
	fmt.Fprintf(w, "        }\n")
}

func joinScaled(xs []float64, unit float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fstr(x / unit)
	}
	return strings.Join(parts, ", ")
}

func fstr(x float64) string { return strconv.FormatFloat(x, 'g', 10, 64) }

// ---- parser ----

// node is a parsed Liberty group.
type node struct {
	name    string
	arg     string
	attrs   map[string]string   // simple attributes
	complex map[string][]string // complex attributes (quoted string lists)
	kids    []*node
}

type libLexer struct {
	s    string
	pos  int
	line int
}

func (lx *libLexer) errf(format string, args ...any) error {
	return fmt.Errorf("liberty: line %d: %s", lx.line+1, fmt.Sprintf(format, args...))
}

func (lx *libLexer) skipSpace() {
	for lx.pos < len(lx.s) {
		c := lx.s[lx.pos]
		if c == '\n' {
			lx.line++
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		// Comments.
		if c == '/' && lx.pos+1 < len(lx.s) && lx.s[lx.pos+1] == '*' {
			end := strings.Index(lx.s[lx.pos+2:], "*/")
			if end < 0 {
				lx.pos = len(lx.s)
				return
			}
			lx.line += strings.Count(lx.s[lx.pos:lx.pos+end+4], "\n")
			lx.pos += end + 4
			continue
		}
		return
	}
}

// ident reads until a delimiter.
func (lx *libLexer) ident() string {
	start := lx.pos
	for lx.pos < len(lx.s) && !strings.ContainsRune(" \t\n\r(){}:;\"", rune(lx.s[lx.pos])) {
		lx.pos++
	}
	return lx.s[start:lx.pos]
}

func (lx *libLexer) expect(c byte) error {
	lx.skipSpace()
	if lx.pos >= len(lx.s) || lx.s[lx.pos] != c {
		return lx.errf("expected %q", string(c))
	}
	lx.pos++
	return nil
}

func (lx *libLexer) peek() byte {
	lx.skipSpace()
	if lx.pos >= len(lx.s) {
		return 0
	}
	return lx.s[lx.pos]
}

// parseGroup parses `name (arg) { body }` with the cursor at name.
func (lx *libLexer) parseGroup() (*node, error) {
	lx.skipSpace()
	n := &node{attrs: map[string]string{}, complex: map[string][]string{}}
	n.name = lx.ident()
	if n.name == "" {
		return nil, lx.errf("expected group name")
	}
	if err := lx.expect('('); err != nil {
		return nil, err
	}
	// Argument: everything until ')'.
	start := lx.pos
	for lx.pos < len(lx.s) && lx.s[lx.pos] != ')' {
		lx.pos++
	}
	n.arg = strings.TrimSpace(lx.s[start:lx.pos])
	if err := lx.expect(')'); err != nil {
		return nil, err
	}
	if err := lx.expect('{'); err != nil {
		return nil, err
	}
	for {
		switch lx.peek() {
		case 0:
			return nil, lx.errf("unexpected EOF in group %s", n.name)
		case '}':
			lx.pos++
			return n, nil
		}
		// Either `key : value ;`, `key (args...) ;` or a nested group.
		save := lx.pos
		key := lx.ident()
		if key == "" {
			return nil, lx.errf("expected statement in group %s", n.name)
		}
		switch lx.peek() {
		case ':':
			lx.pos++
			lx.skipSpace()
			val, err := lx.value()
			if err != nil {
				return nil, err
			}
			n.attrs[key] = val
			if err := lx.expect(';'); err != nil {
				return nil, err
			}
		case '(':
			// Complex attribute or nested group: decide by what follows the
			// closing paren.
			depth := 0
			scan := lx.pos
			for scan < len(lx.s) {
				if lx.s[scan] == '(' {
					depth++
				} else if lx.s[scan] == ')' {
					depth--
					if depth == 0 {
						break
					}
				}
				scan++
			}
			rest := strings.TrimLeft(lx.s[scan+1:], " \t\r\n")
			if strings.HasPrefix(rest, "{") {
				lx.pos = save
				kid, err := lx.parseGroup()
				if err != nil {
					return nil, err
				}
				n.kids = append(n.kids, kid)
			} else {
				lx.pos++ // consume '('
				vals, err := lx.argList()
				if err != nil {
					return nil, err
				}
				n.complex[key] = vals
				if err := lx.expect(';'); err != nil {
					return nil, err
				}
			}
		default:
			return nil, lx.errf("unexpected token after %q", key)
		}
	}
}

// value reads a simple attribute value up to ';'.
func (lx *libLexer) value() (string, error) {
	lx.skipSpace()
	if lx.peek() == '"' {
		lx.pos++
		start := lx.pos
		for lx.pos < len(lx.s) && lx.s[lx.pos] != '"' {
			lx.pos++
		}
		v := lx.s[start:lx.pos]
		if err := lx.expect('"'); err != nil {
			return "", err
		}
		return v, nil
	}
	start := lx.pos
	for lx.pos < len(lx.s) && lx.s[lx.pos] != ';' && lx.s[lx.pos] != '\n' {
		lx.pos++
	}
	return strings.TrimSpace(lx.s[start:lx.pos]), nil
}

// argList reads a comma-separated list of quoted or bare tokens up to ')'.
func (lx *libLexer) argList() ([]string, error) {
	var out []string
	for {
		lx.skipSpace()
		switch lx.peek() {
		case ')':
			lx.pos++
			return out, nil
		case '"':
			lx.pos++
			start := lx.pos
			for lx.pos < len(lx.s) && lx.s[lx.pos] != '"' {
				lx.pos++
			}
			out = append(out, lx.s[start:lx.pos])
			if err := lx.expect('"'); err != nil {
				return nil, err
			}
		case ',':
			lx.pos++
		case 0:
			return nil, lx.errf("unexpected EOF in argument list")
		default:
			start := lx.pos
			for lx.pos < len(lx.s) && !strings.ContainsRune(",)", rune(lx.s[lx.pos])) {
				lx.pos++
			}
			out = append(out, strings.TrimSpace(lx.s[start:lx.pos]))
		}
	}
}

// ParseLib reads a library serialized by WriteLib.
func ParseLib(r io.Reader) (*Library, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lx := &libLexer{s: string(raw)}
	root, err := lx.parseGroup()
	if err != nil {
		return nil, err
	}
	if root.name != "library" {
		return nil, fmt.Errorf("liberty: top-level group is %q, want library", root.name)
	}
	lib := &Library{Name: root.arg, Cells: map[string]*Cell{}}
	lib.Params.TempK = atofOr(root.attrs["nom_temperature"], 300)
	lib.Params.VDD = atofOr(root.attrs["nom_voltage"], 0.7)
	for _, cg := range root.kids {
		if cg.name != "cell" {
			continue
		}
		cell, err := parseCell(cg)
		if err != nil {
			return nil, fmt.Errorf("liberty: cell %s: %w", cg.arg, err)
		}
		lib.Cells[cell.Name] = cell
	}
	return lib, nil
}

func parseCell(cg *node) (*Cell, error) {
	c := &Cell{Name: cg.arg}
	c.Transistors = int(atofOr(cg.attrs["area"], 0))
	c.LeakageAvg = atofOr(cg.attrs["cell_leakage_power"], 0)
	c.LeakageMax = atofOr(cg.attrs["max_leakage_power"], 0)
	pinCaps := map[int]float64{}
	for _, pg := range cg.kids {
		if pg.name != "pin" {
			continue
		}
		if pg.attrs["direction"] == "input" {
			var idx int
			if _, err := fmt.Sscanf(pg.arg, "A%d", &idx); err != nil {
				return nil, fmt.Errorf("input pin name %q", pg.arg)
			}
			pinCaps[idx] = atofOr(pg.attrs["capacitance"], 0) * capUnit
			continue
		}
		// Output pin: timing groups.
		for _, tg := range pg.kids {
			if tg.name != "timing" {
				continue
			}
			arc, err := parseArc(tg)
			if err != nil {
				return nil, err
			}
			c.Arcs = append(c.Arcs, *arc)
		}
	}
	c.Inputs = len(pinCaps)
	c.PinCaps = make([]float64, c.Inputs)
	for i := 0; i < c.Inputs; i++ {
		cap, ok := pinCaps[i]
		if !ok {
			return nil, fmt.Errorf("missing pin A%d", i)
		}
		c.PinCaps[i] = cap
	}
	return c, nil
}

func parseArc(tg *node) (*TimingArc, error) {
	arc := &TimingArc{}
	rel := strings.Trim(tg.attrs["related_pin"], "\" ")
	if _, err := fmt.Sscanf(rel, "A%d", &arc.Pin); err != nil {
		return nil, fmt.Errorf("related_pin %q", rel)
	}
	arc.InRise = tg.attrs["input_edge"] == "rise"
	sense := tg.attrs["timing_sense"]
	arc.OutRise = arc.InRise == (sense == "positive_unate")
	for _, g := range tg.kids {
		t, err := parseTable(g)
		if err != nil {
			return nil, err
		}
		switch g.name {
		case "cell_rise", "cell_fall":
			scaleTable(t, timeUnit)
			arc.Delay = t
		case "rise_transition", "fall_transition":
			scaleTable(t, timeUnit)
			arc.OutSlew = t
		case "internal_power":
			arc.Energy = t
		}
	}
	if arc.Delay == nil || arc.OutSlew == nil || arc.Energy == nil {
		return nil, fmt.Errorf("timing group for A%d missing tables", arc.Pin)
	}
	return arc, nil
}

func parseTable(g *node) (*Table, error) {
	t := &Table{}
	var err error
	if t.Slews, err = floats(g.complex["index_1"]); err != nil {
		return nil, err
	}
	if t.Loads, err = floats(g.complex["index_2"]); err != nil {
		return nil, err
	}
	for i := range t.Slews {
		t.Slews[i] *= timeUnit
	}
	for i := range t.Loads {
		t.Loads[i] *= capUnit
	}
	for _, row := range g.complex["values"] {
		vals, err := floats(strings.Split(row, ","))
		if err != nil {
			return nil, err
		}
		if len(vals) != len(t.Loads) {
			return nil, fmt.Errorf("table row has %d values for %d loads", len(vals), len(t.Loads))
		}
		t.Values = append(t.Values, vals)
	}
	if len(t.Values) != len(t.Slews) {
		return nil, fmt.Errorf("table has %d rows for %d slews", len(t.Values), len(t.Slews))
	}
	return t, nil
}

func scaleTable(t *Table, unit float64) {
	for i := range t.Values {
		for j := range t.Values[i] {
			t.Values[i][j] *= unit
		}
	}
}

func floats(parts []string) ([]float64, error) {
	// index_1 style: a single string with comma-separated values, or
	// already-split pieces.
	var flat []string
	for _, p := range parts {
		for _, q := range strings.Split(p, ",") {
			q = strings.TrimSpace(q)
			if q != "" {
				flat = append(flat, q)
			}
		}
	}
	out := make([]float64, len(flat))
	for i, s := range flat {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", s)
		}
		out[i] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty number list")
	}
	return out, nil
}

func atofOr(s string, def float64) float64 {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return def
	}
	return v
}
