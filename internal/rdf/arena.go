package rdf

import "strings"

// Arena chunk sizes: a chunk is never smaller than what is asked of it,
// starts at arenaMinChunk (or the caller's Hint) and doubles up to
// arenaMaxChunk, so a ten-row answer pays for a few hundred bytes and a
// ten-thousand-row answer for a few dozen chunks.
const (
	arenaMinChunk = 256
	arenaMaxChunk = 32 << 10
)

// Arena hands out strings cut from shared byte chunks: many term values
// cost one allocation between them instead of one each. A chunk is only
// ever appended to within its capacity, so a string handed out stays
// valid (and immutable) for as long as anything references it — at the
// price that one retained string keeps its whole chunk alive. Stages
// that keep few of many rows for long (the result cache, a view build)
// therefore copy what they keep into an arena of their own. The zero
// value is ready to use; an Arena is not safe for concurrent use.
type Arena struct {
	chunk strings.Builder
	next  int // capacity of the next chunk
}

// Hint raises the capacity of the next chunk to at least n bytes (up to
// the chunk cap): a decoder passes what it has buffered, so the first
// chunk of a small document fits the document.
func (a *Arena) Hint(n int) {
	if n > a.next {
		a.next = min(n, arenaMaxChunk)
	}
}

// Bytes returns a string with the contents of p.
func (a *Arena) Bytes(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	start := a.reserve(len(p))
	a.chunk.Write(p)
	return a.chunk.String()[start:]
}

// String returns a copy of s cut from the arena.
func (a *Arena) String(s string) string {
	if s == "" {
		return ""
	}
	start := a.reserve(len(s))
	a.chunk.WriteString(s)
	return a.chunk.String()[start:]
}

// Term returns t with its value copied into the arena. Datatypes and
// language tags are few and shared already, so they are kept as they are.
func (a *Arena) Term(t Term) Term {
	t.Value = a.String(t.Value)
	return t
}

// reserve makes room for n more bytes and returns where in the chunk they
// will go, starting a new chunk when the current one cannot take them:
// writing past a chunk's capacity would move it and leave the strings
// already handed out pointing at a copy nobody appends to — harmless, but
// it would defeat the sharing.
func (a *Arena) reserve(n int) (start int) {
	if a.chunk.Cap()-a.chunk.Len() < n {
		size := max(a.next, arenaMinChunk, n)
		a.next = min(2*size, arenaMaxChunk)
		a.chunk.Reset()
		a.chunk.Grow(size)
	}
	return a.chunk.Len()
}
