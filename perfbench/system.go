package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"memsci/internal/sparse"
)

// system is one generated linear operator held as plain coordinate
// triplets. It is the benchmark's own copy of what it sends: the
// correctness check multiplies these triplets directly, so it does not
// depend on the sparse package the server parses with.
type system struct {
	name string
	n    int
	rows []int32
	cols []int32
	vals []float64
	// text is the MatrixMarket coordinate file as a JSON string literal,
	// quotes included, ready to splice into request bodies.
	text []byte
}

// newSystem copies the triplets out of a generated CSR matrix and renders
// the text the server will receive.
func newSystem(name string, m *sparse.CSR) *system {
	s := &system{name: name, n: m.Rows()}
	for i := 0; i < m.Rows(); i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s.rows = append(s.rows, int32(i))
			s.cols = append(s.cols, int32(m.ColIdx[k]))
			s.vals = append(s.vals, m.Vals[k])
		}
	}
	s.render()
	return s
}

// render writes the triplets as a general MatrixMarket file, directly as
// a JSON string literal: the text holds no character JSON escapes except
// the newline, written as \n. Values use the shortest decimal form that
// parses back to the same float64, so the server sees exactly the
// generated operator.
func (s *system) render() {
	const nl = `\n`
	buf := make([]byte, 0, 40*len(s.vals)+64)
	buf = append(buf, `"%%MatrixMarket matrix coordinate real general`+nl...)
	buf = strconv.AppendInt(buf, int64(s.n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(s.n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(s.vals)), 10)
	buf = append(buf, nl...)
	for k, v := range s.vals {
		buf = strconv.AppendInt(buf, int64(s.rows[k])+1, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(s.cols[k])+1, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		buf = append(buf, nl...)
	}
	s.text = append(buf, '"')
}

// matrixMarket returns the MatrixMarket text.
func (s *system) matrixMarket() (string, error) {
	var mm string
	if err := json.Unmarshal(s.text, &mm); err != nil {
		return "", fmt.Errorf("system %s: %w", s.name, err)
	}
	return mm, nil
}

// relResidual returns ‖b − A·x‖₂ / ‖b‖₂ computed with a plain loop over
// the generated triplets.
func (s *system) relResidual(x, b []float64) float64 {
	r := make([]float64, s.n)
	copy(r, b)
	for k, v := range s.vals {
		r[s.rows[k]] -= v * x[s.cols[k]]
	}
	var rr, bb float64
	for i := range r {
		rr += r[i] * r[i]
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr) / math.Sqrt(bb)
}

// appendFloats renders v as a JSON array of shortest round-trip floats.
func appendFloats(buf []byte, v []float64) []byte {
	buf = append(buf, '[')
	for i, f := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
	}
	return append(buf, ']')
}
