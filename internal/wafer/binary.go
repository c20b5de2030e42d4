package wafer

import (
	"fmt"

	"repro/internal/hdc"
	"repro/internal/wire"
)

// EncoderConfig is the serializable description of an Encoder. The encoder
// is fully deterministic in (Dim, Size, Seed) — all position and marker
// hypervectors are regenerated from the seed — so trained-model artifacts
// store only this config instead of megabytes of basis vectors, and a
// rebuilt encoder is bit-identical to the one used at training time.
//
// Canonical binary form (itr-model/v3 section):
//
//	u32 dim
//	u32 size
//	i64 seed
type EncoderConfig struct {
	Dim  int
	Size int
	Seed int64
}

// Config returns the encoder's rebuild recipe.
func (e *Encoder) Config() EncoderConfig {
	return EncoderConfig{Dim: e.Dim, Size: e.size, Seed: e.seed}
}

// Bounds on a saved encoder config. A config arrives inside an artifact,
// possibly from a faulty or lying replication peer, and NewEncoder
// allocates 2·size² basis hypervectors before it encodes anything, so both
// bounds are checked first.
const (
	// MaxGridSize bounds the grid edge: 4× the 64-die default grid
	// (DefaultConfig, itrwafer -size) and 8× the 32-die grids of the
	// experiments and the serving demo. At the smallest dim, rebuilding a
	// 256-die grid's encoder allocates about 5 MB.
	MaxGridSize = 256
	// maxBasisBytes bounds the basis vectors' words (2·size²·dim/8 bytes),
	// so a large dim cannot make up for the size bound. It admits dim
	// 16384 on the largest grid, twice the largest dim of experiment F1.
	maxBasisBytes = 256 << 20
)

// NewEncoderFromConfig deterministically rebuilds an encoder from a saved
// config, validating the parameters first.
func NewEncoderFromConfig(c EncoderConfig) (*Encoder, error) {
	if c.Dim < 64 {
		return nil, fmt.Errorf("wafer: encoder dim %d too small (need >= 64)", c.Dim)
	}
	if c.Size < 2 || c.Size > MaxGridSize {
		return nil, fmt.Errorf("wafer: encoder grid size %d outside [2, %d]", c.Size, MaxGridSize)
	}
	if basis := 2 * c.Size * c.Size * hdc.Words(c.Dim) * 8; basis > maxBasisBytes {
		return nil, fmt.Errorf("wafer: encoder basis %dx%d at dim %d needs %d bytes, limit %d",
			c.Size, c.Size, c.Dim, basis, maxBasisBytes)
	}
	return NewEncoder(c.Dim, c.Size, c.Seed), nil
}

// AppendBinary appends the canonical binary encoding to b.
func (c EncoderConfig) AppendBinary(b []byte) ([]byte, error) {
	if c.Dim < 0 || c.Size < 0 {
		return nil, fmt.Errorf("wafer: cannot serialize encoder config %+v", c)
	}
	b = wire.AppendU32(b, uint32(c.Dim))
	b = wire.AppendU32(b, uint32(c.Size))
	b = wire.AppendI64(b, c.Seed)
	return b, nil
}

// UnmarshalBinary restores a config saved by AppendBinary. Parameter
// validation happens in NewEncoderFromConfig, which every loader calls to
// rebuild the encoder.
func (c *EncoderConfig) UnmarshalBinary(data []byte) error {
	d := wire.NewDec(data)
	c.Dim = int(d.U32())
	c.Size = int(d.U32())
	c.Seed = d.I64()
	if err := d.Close(); err != nil {
		return fmt.Errorf("wafer: decode encoder config: %w", err)
	}
	return nil
}
