// Package iofault wraps a file with deterministic fault injection for
// crash-safety tests. A File counts the bytes written through it and,
// once a configured budget is exhausted, either errors, short-writes,
// or "crashes" — silently dropping everything past the budget while
// reporting success, which models a power loss after the kernel
// acknowledged the write but before it reached the platter. Individual
// operations (Sync, Truncate) can also be made to fail, standing in for
// a full disk or a flaky filesystem.
//
// The wrapper implements the engine's WAL sink interface, so a database
// can run an entire workload against a faulty log and the test can then
// recover from whatever prefix "survived".
package iofault

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Mode selects what happens to writes once the byte budget is spent.
type Mode int

const (
	// FailWrites makes every write past the budget return ErrInjected
	// without writing anything (a full disk).
	FailWrites Mode = iota
	// ShortWrite writes the part of the crossing write that fits the
	// budget, then returns ErrInjected (a torn append: the frame's
	// prefix is on disk).
	ShortWrite
	// Crash writes up to the budget and silently drops the rest while
	// reporting full success (power loss after acknowledgement). The
	// application keeps running believing its writes landed; the file
	// holds an exact byte prefix of what was written.
	Crash
)

// ErrInjected is the error returned by injected failures.
var ErrInjected = errors.New("iofault: injected failure")

// Sink is the file surface File wraps and implements: what the engine's
// WAL requires of its backing file.
type Sink interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// File wraps a Sink with fault injection. Configure before handing it
// to the code under test; the accessors are safe for concurrent use.
type File struct {
	mu      sync.Mutex
	f       Sink
	mode    Mode
	budget  int64 // bytes accepted before faults start; <0 = unlimited
	written int64 // bytes passed through to f

	failSync     bool
	failTruncate bool
}

// Wrap returns a File passing everything through to f with an unlimited
// budget (no faults until configured).
func Wrap(f Sink) *File {
	return &File{f: f, budget: -1}
}

// SetWriteBudget arms the write fault: after n more accepted bytes
// (counting from bytes already written), writes fault per mode. A
// negative n disarms.
func (f *File) SetWriteBudget(n int64, mode Mode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n >= 0 {
		f.budget = f.written + n
	} else {
		f.budget = -1
	}
	f.mode = mode
}

// FailSync makes Sync return ErrInjected while on.
func (f *File) FailSync(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSync = on
}

// FailTruncate makes Truncate return ErrInjected while on.
func (f *File) FailTruncate(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failTruncate = on
}

// Written returns the bytes passed through to the underlying file.
func (f *File) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// Write implements io.Writer with the configured fault behavior.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget < 0 || f.written+int64(len(p)) <= f.budget {
		n, err := f.f.Write(p)
		f.written += int64(n)
		return n, err
	}
	room := f.budget - f.written
	if room < 0 {
		room = 0
	}
	switch f.mode {
	case FailWrites:
		return 0, fmt.Errorf("%w: write past budget", ErrInjected)
	case ShortWrite:
		n, err := f.f.Write(p[:room])
		f.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: short write (%d of %d bytes)", ErrInjected, n, len(p))
	default: // Crash
		n, err := f.f.Write(p[:room])
		f.written += int64(n)
		if err != nil {
			return n, err
		}
		return len(p), nil // the lie: caller believes everything landed
	}
}

// Sync fsyncs the underlying file unless FailSync is armed. In Crash
// mode past the budget it reports success without syncing (the power
// is already "off" — nothing more reaches the disk).
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failSync {
		return fmt.Errorf("%w: sync", ErrInjected)
	}
	if f.mode == Crash && f.budget >= 0 && f.written >= f.budget {
		return nil
	}
	return f.f.Sync()
}

// Truncate truncates the underlying file unless FailTruncate is armed.
func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failTruncate {
		return fmt.Errorf("%w: truncate", ErrInjected)
	}
	err := f.f.Truncate(size)
	if err == nil && size < f.written {
		f.written = size
	}
	return err
}

// Close closes the underlying file.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.f.Close()
}
