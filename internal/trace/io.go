package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"graphene/internal/dram"
)

// The on-disk trace format is line-oriented text, one access per line:
//
//	bank row gap_ps [dwell_ps]
//
// with '#' comment lines and blank lines ignored. The fourth field is the
// open-row dwell; absent means the device minimum (nRAS), so every
// pre-dwell trace parses unchanged, and WriteTo only emits it on accesses
// that carry one. The first comment line written by WriteTo records the
// trace name. A compact binary alternative lives in binary.go; IsBinary
// distinguishes the two by the binary magic.

// Shared field limits. Both codecs enforce the same ranges, so a trace
// that one reader accepts is never rejected by the other, and parse
// results cannot depend on the platform's int width (the text reader used
// to parse bank/row with platform-width Atoi, so a row valid under the
// 64-bit binary codec overflowed the text reader on 32-bit builds with an
// inconsistent error).
const (
	// MaxBank bounds the flat bank index. Far above any real geometry
	// (Default() has 64 banks), yet small enough that a hostile trace
	// cannot make per-bank bookkeeping allocate gigabytes.
	MaxBank = 1<<20 - 1

	// MaxRow bounds the row index within a bank: it must fit int32 so
	// Access.Row means the same thing on 32- and 64-bit builds.
	MaxRow = 1<<31 - 1

	// MaxGap bounds the think-time gap (any non-negative int64).
	MaxGap = math.MaxInt64

	// MaxDwell bounds the open-row dwell (any non-negative int64; 0 means
	// the device minimum, nRAS).
	MaxDwell = math.MaxInt64

	// MaxLineBytes bounds one text line (access or comment). The previous
	// silent 1 MB scanner cap failed over-long lines with a bare
	// "token too long" carrying no position; the limit is now explicit and
	// the error names the offending line.
	MaxLineBytes = 4 << 20
)

// checkLimits validates one parsed access against the shared limits. The
// error names the field and its legal range; callers wrap it with
// position context (text line or binary offset).
func checkLimits(bank, row, gap int64) error {
	switch {
	case bank < 0 || bank > MaxBank:
		return fmt.Errorf("bank %d out of range [0, %d]", bank, int64(MaxBank))
	case row < 0 || row > MaxRow:
		return fmt.Errorf("row %d out of range [0, %d]", row, int64(MaxRow))
	case gap < 0:
		return fmt.Errorf("gap %d out of range [0, %d]", gap, int64(MaxGap))
	}
	return nil
}

// checkDwell validates an open-row dwell against the shared limits; like
// checkLimits, callers wrap the error with position context.
func checkDwell(dwell int64) error {
	if dwell < 0 {
		return fmt.Errorf("dwell %d out of range [0, %d]", dwell, int64(MaxDwell))
	}
	return nil
}

// sanitizeName makes a trace name safe to interpolate into the single-line
// text header: line breaks collapse to spaces, so a hostile generator name
// cannot inject extra lines (including fake access lines) into the trace.
// ReadFrom additionally trims surrounding whitespace on the way back in.
func sanitizeName(name string) string {
	if !strings.ContainsAny(name, "\r\n") {
		return name
	}
	return strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, name)
}

// WriteTo drains gen into w in the text trace format and returns the
// number of accesses written. The name goes into a "# trace <name>"
// header with line breaks replaced by spaces (see sanitizeName).
func WriteTo(w io.Writer, gen Generator) (n int64, err error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s\n", sanitizeName(gen.Name())); err != nil {
		return 0, err
	}
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if err := checkLimits(int64(a.Bank), int64(a.Row), int64(a.Gap)); err != nil {
			return n, fmt.Errorf("trace: access %d: %w", n, err)
		}
		if err := checkDwell(int64(a.Dwell)); err != nil {
			return n, fmt.Errorf("trace: access %d: %w", n, err)
		}
		if a.Dwell != 0 {
			_, err = fmt.Fprintf(bw, "%d %d %d %d\n", a.Bank, a.Row, int64(a.Gap), int64(a.Dwell))
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %d\n", a.Bank, a.Row, int64(a.Gap))
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// Trace is a fully-materialized activation stream: what the file readers
// produce. Accs is shared, not copied — callers that replay it through
// Generator() must treat it as read-only.
type Trace struct {
	Name string
	Accs []Access
}

// Generator returns a fresh single-use Generator over the trace. Multiple
// calls return independent cursors over the shared backing slice.
func (t *Trace) Generator() Generator { return FromSlice(t.Name, t.Accs) }

// Dims scans the trace and returns the smallest geometry that fits it:
// max bank + 1 and max row + 1 (both 0 for an empty trace).
func (t *Trace) Dims() (banks, rows int) {
	for _, a := range t.Accs {
		if a.Bank >= banks {
			banks = a.Bank + 1
		}
		if a.Row >= rows {
			rows = a.Row + 1
		}
	}
	return banks, rows
}

// ReadFrom parses a text trace from r. The generator's name is taken from
// the first "# trace <name>" comment appearing before any access line —
// blank lines and other comments may precede it — else fallbackName. A
// header after the first access is plain commentary and does not rename
// the trace. Access lines must be exactly three or four integer fields
// (the fourth is the open-row dwell); anything else is an error, not
// silently dropped.
func ReadFrom(r io.Reader, fallbackName string) (Generator, error) {
	t, err := ReadAll(r, fallbackName)
	if err != nil {
		return nil, err
	}
	return t.Generator(), nil
}

// ReadAll is ReadFrom returning the materialized *Trace instead of a
// Generator cursor over it — the form callers use when they also need the
// access slice (for geometry sizing) without draining-and-copying the
// generator a second time.
func ReadAll(r io.Reader, fallbackName string) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), MaxLineBytes)
	line := 0
	// scanErr classifies the scanner's stop condition: an over-long line
	// is blamed on its line number and the documented limit, any other
	// error is the underlying reader's.
	scanErr := func() error {
		err := sc.Err()
		if err == nil {
			return nil
		}
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("trace: line %d: line exceeds %d bytes: %w", line+1, MaxLineBytes, err)
		}
		return fmt.Errorf("trace: %w", err)
	}
	// A reader that fails mid-line makes the scanner emit the torn partial
	// line as its final token; blaming that debris for being malformed
	// buries the real failure. fail prefers the I/O error whenever the bad
	// line was the stream's last and the scanner stopped on an error — but
	// not an over-long *later* line, which is a separate problem from the
	// parse error already in hand.
	fail := func(perr error) error {
		if !sc.Scan() {
			if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
				return fmt.Errorf("trace: %w", err)
			}
		}
		return perr
	}
	name := fallbackName
	named := false
	var accs []Access
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# trace "); ok && !named && len(accs) == 0 {
				name = strings.TrimSpace(rest)
				named = true
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fail(fmt.Errorf("trace: line %d: %q: want 3 or 4 fields (bank row gap_ps [dwell_ps]), got %d", line, text, len(fields)))
		}
		bank, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fail(fmt.Errorf("trace: line %d: %q: bad bank: %w", line, text, err))
		}
		row, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fail(fmt.Errorf("trace: line %d: %q: bad row: %w", line, text, err))
		}
		gap, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fail(fmt.Errorf("trace: line %d: %q: bad gap: %w", line, text, err))
		}
		if err := checkLimits(bank, row, gap); err != nil {
			return nil, fail(fmt.Errorf("trace: line %d: %q: %w", line, text, err))
		}
		var dwell int64
		if len(fields) == 4 {
			dwell, err = strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, fail(fmt.Errorf("trace: line %d: %q: bad dwell: %w", line, text, err))
			}
			if err := checkDwell(dwell); err != nil {
				return nil, fail(fmt.Errorf("trace: line %d: %q: %w", line, text, err))
			}
		}
		accs = append(accs, Access{Bank: int(bank), Row: int(row), Gap: dram.Time(gap), Dwell: dram.Time(dwell)})
	}
	if err := scanErr(); err != nil {
		return nil, err
	}
	return &Trace{Name: name, Accs: accs}, nil
}
