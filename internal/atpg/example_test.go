package atpg_test

import (
	"fmt"

	"repro/internal/atpg"
	"repro/internal/circuit"
)

func ExampleRun() {
	res, err := atpg.Run(circuit.MustC17(), atpg.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("coverage %.0f%% with %d patterns\n", res.Coverage*100, res.Patterns.N)
	// Output: coverage 100% with 8 patterns
}
