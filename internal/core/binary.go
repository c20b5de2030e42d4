package core

import (
	"fmt"

	"repro/internal/hdc"
	"repro/internal/wafer"
	"repro/internal/wire"
)

// Canonical binary form of a trained HDCWaferClassifier, the payload of
// "wafer-hdc" itr-model/v3 artifacts:
//
//	encoder config (u32 dim, u32 size, i64 seed — the rebuild recipe)
//	u32  epochs
//	i64s err_history
//	bytes classifier (length-prefixed hdc.Classifier canonical section)
//
// The classifier rides in its own length-prefixed section so its codec can
// evolve without shifting the outer layout.

// AppendBinary appends the canonical binary encoding to b.
func (h *HDCWaferClassifier) AppendBinary(b []byte) ([]byte, error) {
	if h.enc == nil || h.cls == nil {
		return nil, fmt.Errorf("core: cannot serialize unbuilt wafer classifier")
	}
	if h.Epochs < 0 {
		return nil, fmt.Errorf("core: cannot serialize wafer classifier with %d epochs", h.Epochs)
	}
	b, err := h.enc.Config().AppendBinary(b)
	if err != nil {
		return nil, err
	}
	b = wire.AppendU32(b, uint32(h.Epochs))
	hist := make([]int64, len(h.ErrHistory))
	for i, e := range h.ErrHistory {
		hist[i] = int64(e)
	}
	b = wire.AppendI64s(b, hist)
	cls, err := h.cls.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	return wire.AppendBytes(b, cls), nil
}

// GridSize returns the wafer grid edge the model was built for (incoming
// maps must match it).
func (h *HDCWaferClassifier) GridSize() int { return h.enc.Config().Size }

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *HDCWaferClassifier) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// UnmarshalBinary restores a trained model saved by AppendBinary; its
// predictions are bit-identical to the classifier that was saved, and it
// can keep retraining (the accumulators are the complete state).
func (h *HDCWaferClassifier) UnmarshalBinary(data []byte) error {
	d := wire.NewDec(data)
	cfg := wafer.EncoderConfig{Dim: int(d.U32()), Size: int(d.U32()), Seed: d.I64()}
	epochs := int(d.U32())
	hist := d.I64s()
	clsBytes := d.Bytes()
	if err := d.Close(); err != nil {
		return fmt.Errorf("core: decode wafer classifier: %w", err)
	}
	cls := &hdc.Classifier{}
	if err := cls.UnmarshalBinary(clsBytes); err != nil {
		return fmt.Errorf("core: decode wafer classifier: %w", err)
	}
	if cls.Dim != cfg.Dim {
		return fmt.Errorf("core: classifier dim %d != encoder dim %d", cls.Dim, cfg.Dim)
	}
	if cls.NClasses != int(wafer.NumClasses) {
		return fmt.Errorf("core: classifier has %d classes, want %d", cls.NClasses, wafer.NumClasses)
	}
	enc, err := wafer.NewEncoderFromConfig(cfg)
	if err != nil {
		return err
	}
	var errHistory []int
	if len(hist) > 0 {
		errHistory = make([]int, len(hist))
		for i, e := range hist {
			errHistory[i] = int(e)
		}
	}
	h.Dim = cfg.Dim
	h.Epochs = epochs
	h.ErrHistory = errHistory
	h.enc = enc
	h.cls = cls
	return nil
}
