package circuit

import (
	"fmt"
	"os"
	"strings"
)

// Load resolves the -bench / -gen flags of the CLIs to a netlist: the
// .bench file at benchPath if it is set, else the FromSpec circuit gen.
func Load(benchPath, gen string) (*Netlist, error) {
	switch {
	case benchPath != "":
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ParseBench(f, benchPath)
	case gen != "":
		return FromSpec(gen)
	}
	return nil, fmt.Errorf("need -bench <file> or -gen <name>")
}

// FromSpec resolves a generated-circuit spec string — the shared `-gen`
// vocabulary of the CLIs (itratpg, itrcluster, itrsta) — to a netlist:
//
//	c17            the ISCAS-85 c17 sample
//	adderN         N-bit ripple-carry adder
//	mulN           N×N array multiplier
//	aluN           N-bit ALU slice
//	cmpN           N-bit comparator
//	parityN        N-leaf parity tree
//	decN           N-to-2^N decoder
//	gparityU.C.E   gated parity banks: U units, chain C, E enables
//	randI.G.S      random netlist: I inputs, G gates, seed S
func FromSpec(name string) (*Netlist, error) {
	var size int
	switch {
	case name == "c17":
		return MustC17(), nil
	case scanSpec(name, "adder", &size):
		return RippleAdder(size), nil
	case scanSpec(name, "mul", &size):
		return ArrayMultiplier(size), nil
	case scanSpec(name, "alu", &size):
		return ALUSlice(size), nil
	case scanSpec(name, "cmp", &size):
		return Comparator(size), nil
	case scanSpec(name, "parity", &size):
		return ParityTree(size), nil
	case strings.HasPrefix(name, "gparity"):
		var units, chain, enable int
		if _, err := fmt.Sscanf(name, "gparity%d.%d.%d", &units, &chain, &enable); err != nil {
			return nil, fmt.Errorf("gated parity spec %q, want gparityU.C.E", name)
		}
		return GatedParity(units, chain, enable), nil
	case scanSpec(name, "dec", &size):
		return Decoder(size), nil
	case strings.HasPrefix(name, "rand"):
		var in, gates int
		var seed int64
		if _, err := fmt.Sscanf(name, "rand%d.%d.%d", &in, &gates, &seed); err != nil {
			return nil, fmt.Errorf("random circuit spec %q, want randI.G.S", name)
		}
		return Random(in, gates, seed), nil
	}
	return nil, fmt.Errorf("unknown circuit %q", name)
}

func scanSpec(name, prefix string, size *int) bool {
	if !strings.HasPrefix(name, prefix) {
		return false
	}
	_, err := fmt.Sscanf(name[len(prefix):], "%d", size)
	return err == nil && *size > 0
}
