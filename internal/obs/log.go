package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Level selects how much a Logger emits.
type Level int32

const (
	// Quiet suppresses everything except errors.
	Quiet Level = iota
	// Normal emits progress output (the default; byte-identical to the
	// historical fmt.Fprintf output of the CLI tools).
	Normal
	// Verbose additionally emits detail diagnostics.
	Verbose
)

// Logger is a minimal leveled logger for the CLI tools. It adds no
// prefixes or timestamps: at Normal level its output is byte-identical to
// the raw fmt.Fprintf calls it replaces. Safe for concurrent use.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level atomic.Int32
}

// NewLogger writes to w at the given level.
func NewLogger(w io.Writer, level Level) *Logger {
	l := &Logger{w: w}
	l.level.Store(int32(level))
	return l
}

// SetLevel changes the level at runtime.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

func (l *Logger) emit(min Level, format string, args ...any) {
	if Level(l.level.Load()) < min {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format, args...)
}

// Infof emits at Normal and above. The format is written verbatim —
// include the trailing newline, as with fmt.Fprintf.
func (l *Logger) Infof(format string, args ...any) { l.emit(Normal, format, args...) }

// Verbosef emits only at Verbose.
func (l *Logger) Verbosef(format string, args ...any) { l.emit(Verbose, format, args...) }

// Errorf always emits, regardless of level.
func (l *Logger) Errorf(format string, args ...any) { l.emit(Quiet, format, args...) }
