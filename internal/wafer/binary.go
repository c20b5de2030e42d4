package wafer

import (
	"fmt"

	"repro/internal/wire"
)

// EncoderConfig is the serializable description of an Encoder. The encoder
// is fully deterministic in (Dim, Size, Seed) — all position and marker
// hypervectors are regenerated from the seed — so trained-model artifacts
// store only this config instead of megabytes of basis vectors, and a
// rebuilt encoder is bit-identical to the one used at training time.
//
// Canonical binary form (itr-model/v2 section):
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

// NewEncoderFromConfig deterministically rebuilds an encoder from a saved
// config, validating the parameters first.
func NewEncoderFromConfig(c EncoderConfig) (*Encoder, error) {
	if c.Dim < 64 {
		return nil, fmt.Errorf("wafer: encoder dim %d too small (need >= 64)", c.Dim)
	}
	if c.Size < 2 {
		return nil, fmt.Errorf("wafer: encoder grid size %d too small (need >= 2)", c.Size)
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
