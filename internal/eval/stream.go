package eval

import "iter"

// SolutionSeq is a lazy solution sequence: a single-use iterator yielding
// solutions as a decoder, a federated merge or the decomposer produces
// them. A non-nil error terminates the sequence; no solutions follow it.
// Consumers may stop early by breaking out of the range loop, which
// releases the producer without draining it.
type SolutionSeq = iter.Seq2[Solution, error]

// SolutionStream is a pull-based stream of solutions, the handle shape
// shared by the endpoint client (decoding a response body incrementally)
// and the federation executor (merging many such bodies). Next returns
// io.EOF at the clean end of the stream; Close releases the underlying
// resources and must always be called. Next hands the caller ownership
// of the returned map: the stream never touches it again, so a consumer
// (the owl:sameAs merge) may rewrite it in place. The evaluator's own
// rows are the opposite case — a row of RowResult.Seq is the producer's
// working frame and valid only during its yield — which is why this
// interface stays on maps until the mediator's lane moves to rows too.
type SolutionStream interface {
	Vars() []string
	Next() (Solution, error)
	Close() error
}

// Collect drains a solution sequence into a slice, returning the first
// error the sequence yielded.
func Collect(seq SolutionSeq) ([]Solution, error) {
	var out []Solution
	for sol, err := range seq {
		if err != nil {
			return nil, err
		}
		out = append(out, sol)
	}
	return out, nil
}
