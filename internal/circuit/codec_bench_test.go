package circuit

import "testing"

// BenchmarkUnmarshalNetlist measures a cold decode of the 32k-gate generated
// netlist: the cost every cluster worker pays once per job.
func BenchmarkUnmarshalNetlist(b *testing.B) {
	data, err := Random(64, 32000, 3).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalNetlist(data); err != nil {
			b.Fatal(err)
		}
	}
}
