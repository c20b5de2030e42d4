package hdc

import (
	"fmt"

	"repro/internal/wire"
)

// Canonical binary form of a trained Classifier, the section embedded in
// itr-model/v2 wafer-hdc artifacts. Field order is fixed and every section
// is length-prefixed, so one trained classifier has exactly one encoding
// and blake2b over the bytes is a usable identity:
//
//	u32 dim
//	u32 n_classes
//	u8  mode
//	per class, in class order:
//	  i64  adds   (Add operation count)
//	  i32s counts (per-bit accumulator votes, exactly dim entries)
//
// The integer accumulators are the complete training state — prototypes
// and norms are derived on load — so a decoded classifier is bit-identical
// to the original in both modes and can keep retraining.

// AppendBinary appends the canonical binary encoding to b.
func (c *Classifier) AppendBinary(b []byte) ([]byte, error) {
	if c.Dim < 1 || c.NClasses < 1 || len(c.acc) != c.NClasses {
		return nil, fmt.Errorf("hdc: cannot serialize classifier with dims %dx%d (%d accumulators)",
			c.Dim, c.NClasses, len(c.acc))
	}
	b = wire.AppendU32(b, uint32(c.Dim))
	b = wire.AppendU32(b, uint32(c.NClasses))
	b = wire.AppendU8(b, uint8(c.Mode))
	for _, acc := range c.acc {
		b = wire.AppendI64(b, int64(acc.n))
		b = wire.AppendI32s(b, acc.counts)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *Classifier) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// UnmarshalBinary restores a classifier saved by AppendBinary, rebuilding
// the derived prototypes and norms. It implements
// encoding.BinaryUnmarshaler.
func (c *Classifier) UnmarshalBinary(data []byte) error {
	d := wire.NewDec(data)
	dim := int(d.U32())
	nClasses := int(d.U32())
	mode := Mode(d.U8())
	if err := d.Err(); err != nil {
		return fmt.Errorf("hdc: decode classifier: %w", err)
	}
	if dim < 1 || nClasses < 1 {
		return fmt.Errorf("hdc: invalid classifier dims %dx%d", dim, nClasses)
	}
	if mode != ModeInteger && mode != ModeBinary {
		return fmt.Errorf("hdc: unknown mode %d", mode)
	}
	acc := make([]*Bundler, nClasses)
	for i := range acc {
		n := d.I64()
		counts := d.I32s()
		if err := d.Err(); err != nil {
			return fmt.Errorf("hdc: decode classifier class %d: %w", i, err)
		}
		if n < 0 {
			return fmt.Errorf("hdc: class %d has negative add count %d", i, n)
		}
		if len(counts) != dim {
			return fmt.Errorf("hdc: class %d has %d counts for dim %d", i, len(counts), dim)
		}
		acc[i] = &Bundler{Dim: dim, counts: counts, n: int(n)}
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("hdc: decode classifier: %w", err)
	}
	c.Dim, c.NClasses, c.Mode, c.acc = dim, nClasses, mode, acc
	c.rebuild()
	return nil
}
