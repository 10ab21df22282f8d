// The filesystem seam of the spill path. Run-file I/O goes through a
// three-method interface instead of raw os calls so tests can inject
// faults at exact points — "the Nth create fails", "the second
// read-back fails" — and assert every error path surfaces the error,
// returns its MemBudget charge, and leaves no files behind. Production
// always uses the os-backed implementation; the indirection costs one
// interface call per file operation, which run-file buffering already
// amortizes over thousands of rows.
//
// A spill file is shared: one spill stream writes every partition it
// spills into one file, sequentially through one buffer, and each
// partition reads back only its own extents, by offset — which is why
// Open returns a reader-at.
package exec

import (
	"io"
	"os"
)

// spillFS is the file-operation surface of the spill path: create a run
// file for writing, open one for reading by extent, remove one. Directory
// lifecycle (MkdirTemp at the first create, RemoveAll at Close) stays on
// the os package — the final RemoveAll is the cleanup of last resort
// and must not be failable by injection.
type spillFS interface {
	Create(name string) (io.WriteCloser, error)
	Open(name string) (spillReader, error)
	Remove(name string) error
}

// spillReader reads a spill file by extent: many partitions' frames
// share one file, and each partition reads back only its own byte
// ranges.
type spillReader interface {
	io.ReaderAt
	io.Closer
}

// osSpillFS is the production implementation.
type osSpillFS struct{}

func (osSpillFS) Create(name string) (io.WriteCloser, error) { return os.Create(name) }
func (osSpillFS) Open(name string) (spillReader, error)      { return os.Open(name) }
func (osSpillFS) Remove(name string) error                   { return os.Remove(name) }

// spillFS returns the executor's run-file filesystem — the injected
// one, or the os-backed default.
func (e *Executor) spillFS() spillFS {
	if e.fs != nil {
		return e.fs
	}
	return osSpillFS{}
}
