// Package srjson encodes and decodes the "SPARQL Query Results JSON
// Format", the wire format our SPARQL protocol endpoints serve and the
// federation client consumes. Both directions are hand-written and
// streaming (encode in stream.go, decode in decode.go): every returned
// row crosses this format twice, so neither goes through encoding/json's
// reflection.
package srjson

import (
	"bytes"
	"fmt"
	"io"

	"sparqlrw/internal/eval"
)

// EncodeAsk serialises an ASK result.
func EncodeAsk(b bool) ([]byte, error) {
	if b {
		return []byte(`{"head":{},"boolean":true}`), nil
	}
	return []byte(`{"head":{},"boolean":false}`), nil
}

// Decode parses either a SELECT or ASK results document. For SELECT,
// boolean is nil; for ASK, the result carries no solutions. It drains the
// incremental decoder (see decode.go), the single parsing path.
func Decode(data []byte) (*eval.Result, *bool, error) {
	d, err := NewStreamDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	var sols []eval.Solution
	for {
		sol, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		sols = append(sols, sol)
	}
	// Unlike the incremental decoder (which leaves the reader positioned
	// after the document for its caller), the buffered form owns the
	// whole payload and rejects trailing data.
	if err := d.trailing(); err != nil {
		return nil, nil, err
	}
	if b := d.Boolean(); b != nil {
		return nil, b, nil
	}
	if !d.SawResults() {
		return nil, nil, fmt.Errorf("srjson: document has neither results nor boolean")
	}
	return &eval.Result{Vars: d.Vars(), Solutions: sols}, nil, nil
}
