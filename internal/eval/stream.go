package eval

import "iter"

// SolutionSeq is a lazy solution sequence: a single-use iterator yielding
// solutions as a decoder or the mediator's stream produces them. A
// non-nil error terminates the sequence; no solutions follow it.
// Consumers may stop early by breaking out of the range loop, which
// releases the producer without draining it.
type SolutionSeq = iter.Seq2[Solution, error]

// RowStream is a sub-query's answer as the mediator's own lane reads it:
// positional rows over the reader's slot table, no map per row. NextRow
// fills row (row[i] binding vars[i], the zero Term for unbound, variables
// outside vars dropped) and returns io.EOF at the clean end; the row is
// the caller's to reuse, and the terms' strings stay valid while
// referenced. RowBuffered reports whether the next NextRow is likely to
// return without waiting for the source, so a batching reader knows when
// to hand its batch on. Close releases the underlying resources and must
// always be called. endpoint.SelectStream is the implementation.
type RowStream interface {
	NextRow(vars []string, row Row) error
	RowBuffered() bool
	Close() error
}
