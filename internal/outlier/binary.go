package outlier

import (
	"fmt"

	"repro/internal/wire"
)

// Scorer method names, as recorded in outlier-screen artifacts.
const (
	MethodZScorePAT   = "zscore-pat"
	MethodMahalanobis = "mahalanobis"
	MethodKNN         = "knn"
)

// Canonical binary forms of the fitted PAT scorers (itr-model/v3
// sections). The envelope is a method code byte followed by the method's
// state, so one decoder dispatches to the right implementation. Matrices
// are stored flat with their row length implied by the preceding vector
// (mahalanobis) or explicit (knn) — one fitted scorer has exactly one
// encoding.

// Binary method codes (the envelope's discriminant). Stable on the wire:
// new methods append, existing codes never change meaning.
const (
	methodCodeZScorePAT   = 1
	methodCodeMahalanobis = 2
	methodCodeKNN         = 3
)

// AppendScorerBinary appends the self-describing canonical encoding of a
// fitted scorer (method code + state) to b.
func AppendScorerBinary(b []byte, s Scorer) ([]byte, error) {
	switch s := s.(type) {
	case *ZScorePAT:
		return s.AppendBinary(wire.AppendU8(b, methodCodeZScorePAT))
	case *Mahalanobis:
		return s.AppendBinary(wire.AppendU8(b, methodCodeMahalanobis))
	case *KNNOutlier:
		return s.AppendBinary(wire.AppendU8(b, methodCodeKNN))
	}
	return nil, fmt.Errorf("outlier: scorer %T has no serialized form", s)
}

// UnmarshalScorerBinary reconstructs a fitted scorer from an
// AppendScorerBinary encoding.
func UnmarshalScorerBinary(data []byte) (Scorer, error) {
	d := wire.NewDec(data)
	code := d.U8()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("outlier: decode scorer envelope: %w", err)
	}
	var s Scorer
	switch code {
	case methodCodeZScorePAT:
		s = &ZScorePAT{}
	case methodCodeMahalanobis:
		s = &Mahalanobis{}
	case methodCodeKNN:
		s = &KNNOutlier{}
	default:
		return nil, fmt.Errorf("outlier: unknown scorer method code %d", code)
	}
	type binaryUnmarshaler interface{ UnmarshalBinary([]byte) error }
	if err := s.(binaryUnmarshaler).UnmarshalBinary(data[1:]); err != nil {
		return nil, err
	}
	return s, nil
}

// Dim reports how many tests a fitted scorer reads from each measurement
// vector. It refuses state no vector could be scored against: a scorer
// that is not fitted, or a kNN reference whose rows differ in length.
func Dim(s Scorer) (int, error) {
	var d int
	switch s := s.(type) {
	case *ZScorePAT:
		d = len(s.med)
	case *Mahalanobis:
		d = len(s.mean)
	case *KNNOutlier:
		if len(s.ref) > 0 {
			d = len(s.ref[0])
		}
		for i, row := range s.ref {
			if len(row) != d {
				return 0, fmt.Errorf("outlier: knn reference row %d has %d tests, row 0 has %d", i, len(row), d)
			}
		}
	default:
		return 0, fmt.Errorf("outlier: scorer %T has no fitted dimension", s)
	}
	if d == 0 {
		return 0, fmt.Errorf("outlier: %T is not fitted", s)
	}
	return d, nil
}

// AppendBinary appends the fitted robust location/scale estimates:
// f64s med, f64s mad.
func (s *ZScorePAT) AppendBinary(b []byte) ([]byte, error) {
	if len(s.med) == 0 || len(s.med) != len(s.mad) {
		return nil, fmt.Errorf("outlier: cannot serialize zscore state %d medians / %d MADs",
			len(s.med), len(s.mad))
	}
	b = wire.AppendF64s(b, s.med)
	b = wire.AppendF64s(b, s.mad)
	return b, nil
}

// UnmarshalBinary restores a fitted ZScorePAT; every MAD must be positive
// (Score divides by it).
func (s *ZScorePAT) UnmarshalBinary(data []byte) error {
	d := wire.NewDec(data)
	med := d.F64s()
	mad := d.F64s()
	if err := d.Close(); err != nil {
		return fmt.Errorf("outlier: decode zscore state: %w", err)
	}
	if len(med) == 0 || len(med) != len(mad) {
		return fmt.Errorf("outlier: zscore state %d medians / %d MADs", len(med), len(mad))
	}
	for t, m := range mad {
		if !(m > 0) {
			return fmt.Errorf("outlier: zscore MAD[%d] = %g not positive", t, m)
		}
	}
	s.med, s.mad = med, mad
	return nil
}

// AppendBinary appends the fitted mean and inverse covariance:
// f64s mean, f64s inv (row-major d*d, d implied by the mean length).
func (s *Mahalanobis) AppendBinary(b []byte) ([]byte, error) {
	di := len(s.mean)
	if di == 0 || len(s.inv) != di {
		return nil, fmt.Errorf("outlier: cannot serialize mahalanobis state dim %d with %d inverse rows",
			di, len(s.inv))
	}
	b = wire.AppendF64s(b, s.mean)
	flat := make([]float64, 0, di*di)
	for i, row := range s.inv {
		if len(row) != di {
			return nil, fmt.Errorf("outlier: mahalanobis inverse row %d has %d cols for dim %d",
				i, len(row), di)
		}
		flat = append(flat, row...)
	}
	return wire.AppendF64s(b, flat), nil
}

// UnmarshalBinary restores a fitted Mahalanobis scorer.
func (s *Mahalanobis) UnmarshalBinary(data []byte) error {
	d := wire.NewDec(data)
	mean := d.F64s()
	flat := d.F64s()
	if err := d.Close(); err != nil {
		return fmt.Errorf("outlier: decode mahalanobis state: %w", err)
	}
	di := len(mean)
	if di == 0 || len(flat) != di*di {
		return fmt.Errorf("outlier: mahalanobis state dim %d with %d inverse entries", di, len(flat))
	}
	inv := make([][]float64, di)
	for i := range inv {
		inv[i] = flat[i*di : (i+1)*di : (i+1)*di]
	}
	s.mean, s.inv = mean, inv
	return nil
}

// AppendBinary appends the neighbor count and memorized reference lot:
// u32 k, u32 rows, u32 cols, flat row-major f64s.
func (s *KNNOutlier) AppendBinary(b []byte) ([]byte, error) {
	if len(s.ref) == 0 {
		return nil, fmt.Errorf("outlier: cannot serialize knn state with empty reference")
	}
	if s.K < 1 || s.K > len(s.ref) {
		return nil, fmt.Errorf("outlier: cannot serialize knn state k=%d for %d reference devices",
			s.K, len(s.ref))
	}
	cols := len(s.ref[0])
	b = wire.AppendU32(b, uint32(s.K))
	b = wire.AppendU32(b, uint32(len(s.ref)))
	b = wire.AppendU32(b, uint32(cols))
	flat := make([]float64, 0, len(s.ref)*cols)
	for i, row := range s.ref {
		if len(row) != cols {
			return nil, fmt.Errorf("outlier: knn reference row %d has %d tests, row 0 has %d",
				i, len(row), cols)
		}
		flat = append(flat, row...)
	}
	return wire.AppendF64s(b, flat), nil
}

// UnmarshalBinary restores a fitted KNNOutlier.
func (s *KNNOutlier) UnmarshalBinary(data []byte) error {
	d := wire.NewDec(data)
	k := int(d.U32())
	rows := int(d.U32())
	cols := int(d.U32())
	flat := d.F64s()
	if err := d.Close(); err != nil {
		return fmt.Errorf("outlier: decode knn state: %w", err)
	}
	if rows == 0 || cols == 0 || len(flat) != rows*cols {
		return fmt.Errorf("outlier: knn state %dx%d with %d entries", rows, cols, len(flat))
	}
	if k < 1 || k > rows {
		return fmt.Errorf("outlier: knn state k=%d for %d reference devices", k, rows)
	}
	ref := make([][]float64, rows)
	for i := range ref {
		ref[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	s.K, s.ref = k, ref
	return nil
}
