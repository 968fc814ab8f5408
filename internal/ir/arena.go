package ir

import (
	"sync"
	"unsafe"
)

// Arena is the chunked storage compiled bodies are built in: a Builder
// appends every statement and temp width straight into the arena's tail.
// An arena has one of two owners.
//
//   - A guest (NewBuilderIn): the emulator that compiles each guest's
//     instructions into its own arena gets every body back where it was
//     built. The bodies live until the owner calls Release, so no body may
//     outlive it.
//   - NewBuilder's pooled scratch: Build copies the body out at its exact
//     size and recycles the arena at once.
//
// One builder at a time may use an arena.
type Arena struct {
	stmts  chunks[Stmt]
	widths chunks[uint8]
	labels []int // label → stmt index, -1 while unbound
}

// Chunk sizes. A body larger than a chunk gets a chunk of its own.
const (
	stmtChunk  = 1024
	widthChunk = 1024
)

// arenaCap bounds the storage a pooled arena may keep: a guest that
// compiled more than this drops its arena instead of pooling it, so one
// outsized guest does not pin its chunks for the rest of the process.
const arenaCap = 1 << 20

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// NewArena returns an empty arena, recycled from earlier guests when one
// is pooled.
func NewArena() *Arena { return arenaPool.Get().(*Arena) }

// Release returns the arena to the pool, or drops it if it grew past
// arenaCap. Every body built in it is dead afterwards: later guests
// overwrite its storage.
func (a *Arena) Release() {
	if a.bytes() > arenaCap {
		return
	}
	a.reset()
	arenaPool.Put(a)
}

// reset empties the arena and keeps its chunks for the next bodies.
func (a *Arena) reset() {
	a.stmts.reset()
	a.widths.reset()
	a.labels = a.labels[:0]
}

// bytes is the storage the arena holds.
func (a *Arena) bytes() int {
	return a.stmts.capacity()*int(unsafe.Sizeof(Stmt{})) + a.widths.capacity() +
		cap(a.labels)*int(unsafe.Sizeof(0))
}

// chunks is a list of fixed-capacity slabs filled in order; the filled
// prefix of each slab is its len. reset keeps every slab for reuse.
type chunks[T any] struct {
	list [][]T
	cur  int // slab being filled; meaningful only when list is non-empty
}

// tail returns an empty slice at the fill point of the current slab, with
// the rest of the slab as its capacity (nil before the first slab).
func (c *chunks[T]) tail() []T {
	if len(c.list) == 0 {
		return nil
	}
	s := c.list[c.cur]
	return s[len(s):len(s)]
}

// move copies a body that filled the rest of its slab to the start of the
// next slab, reusing a pooled one when it has room for the body to grow,
// and returns the body at its new place. The abandoned copy is dead space
// until reset.
func (c *chunks[T]) move(body []T, chunk int) []T {
	need := max(chunk, 2*len(body))
	next := c.cur + 1
	if len(c.list) == 0 {
		next = 0
	}
	switch {
	case next == len(c.list):
		c.list = append(c.list, make([]T, 0, need))
	case cap(c.list[next]) < need:
		c.list[next] = make([]T, 0, need)
	}
	c.cur = next
	return append(c.list[next], body...)
}

// commit marks the n elements past the fill point of the current slab used.
func (c *chunks[T]) commit(n int) {
	if n > 0 {
		c.list[c.cur] = c.list[c.cur][:len(c.list[c.cur])+n]
	}
}

// reset empties every slab and starts filling from the first again.
func (c *chunks[T]) reset() {
	for i := range c.list {
		c.list[i] = c.list[i][:0]
	}
	c.cur = 0
}

// capacity is the element count of every slab together.
func (c *chunks[T]) capacity() int {
	n := 0
	for _, s := range c.list {
		n += cap(s)
	}
	return n
}
