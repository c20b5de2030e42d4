package hdc

import (
	"fmt"

	"repro/internal/wire"
)

// Canonical binary form of a trained Classifier, the section embedded in
// itr-model/v3 wafer-hdc artifacts. Field order is fixed and every section
// is length-prefixed, so one trained classifier has exactly one encoding
// and SHA-256 over the bytes is a usable identity:
//
//	u32 dim
//	u32 n_classes
//	per class, in class order:
//	  i64  adds   (Add operation count)
//	  i32s counts (per-bit accumulator votes, exactly dim entries)
//
// The integer accumulators are the complete training state — the norms are
// derived on load — so a decoded classifier is bit-identical to the
// original and can keep retraining.

// AppendBinary appends the canonical binary encoding to b.
func (c *Classifier) AppendBinary(b []byte) ([]byte, error) {
	if c.Dim < 1 || c.NClasses < 1 || len(c.acc) != c.NClasses {
		return nil, fmt.Errorf("hdc: cannot serialize classifier with dims %dx%d (%d accumulators)",
			c.Dim, c.NClasses, len(c.acc))
	}
	b = wire.AppendU32(b, uint32(c.Dim))
	b = wire.AppendU32(b, uint32(c.NClasses))
	for _, acc := range c.acc {
		b = wire.AppendI64(b, int64(acc.n))
		b = wire.AppendI32s(b, acc.counts)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *Classifier) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// UnmarshalBinary restores a classifier saved by AppendBinary, rebuilding
// the derived norms. It implements encoding.BinaryUnmarshaler.
func (c *Classifier) UnmarshalBinary(data []byte) error {
	d := wire.NewDec(data)
	dim := int(d.U32())
	nClasses := int(d.U32())
	if err := d.Err(); err != nil {
		return fmt.Errorf("hdc: decode classifier: %w", err)
	}
	if dim < 1 || nClasses < 1 {
		return fmt.Errorf("hdc: invalid classifier dims %dx%d", dim, nClasses)
	}
	// Every class takes 12 + 4·dim bytes (add count, counts length, counts),
	// so a class count the remaining bytes cannot hold is refused before it
	// sizes an allocation.
	if classBytes := 12 + 4*dim; nClasses > d.Remaining()/classBytes {
		return fmt.Errorf("hdc: %d classes of dim %d do not fit in %d bytes",
			nClasses, dim, d.Remaining())
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
	c.Dim, c.NClasses, c.acc = dim, nClasses, acc
	c.rebuild()
	return nil
}
