package wltemporal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"outlierlb/internal/metrics"
)

// Workload-trace-v2 is the binary replay format: one file captures a
// run's complete offered load — every submission's cohort, exact
// float64 virtual time and query class — compactly enough to replay
// hour-long runs. The layout, after the 6-byte header "OLBW" + version
// byte '2' + '\n':
//
//	uvarint cohortCount
//	  cohortCount × (uvarint len, len bytes of cohort name)
//	uvarint classCount
//	  classCount × (uvarint len, app bytes, uvarint len, class bytes)
//	uvarint arrivalCount
//	  arrivalCount × (8-byte little-endian IEEE-754 float64 time,
//	                  uvarint cohort index, uvarint class index)
//
// Times are the raw bit patterns of the recorded event timestamps —
// never re-derived arithmetic — so a replay schedules them to the last
// ulp. Framing is strict: readers reject a wrong magic, an unsupported
// version, truncation anywhere, indexes out of range, non-finite or
// decreasing times, non-minimal uvarints (so every accepted stream
// re-encodes to the same bytes), and any trailing bytes after the last
// arrival.

const (
	tracePrefix  = "OLBW"
	traceVersion = '2'

	maxNameLen  = 1 << 12
	maxDictLen  = 1 << 16
	maxArrivals = 1 << 31
)

// Arrival is one recorded submission. Cohort and Class index the
// trace's dictionaries.
type Arrival struct {
	T      float64
	Cohort int
	Class  int
}

// Trace is a decoded workload-trace-v2: the cohort and class
// dictionaries plus the arrival stream in submission order
// (non-decreasing time; ties keep their recorded order, which is the
// original execution order).
type Trace struct {
	Cohorts  []string
	Classes  []metrics.ClassID
	Arrivals []Arrival
}

// Recorder builds a Trace from OnArrival callbacks. Hook it into a
// workload.Emulator or a Driver via their OnArrival options; every
// submission appends one Arrival. Register cohorts up front (Register)
// so a cohort that happens to produce no arrivals still occupies its
// dictionary slot — the replayer's RNG fork parity depends on the
// cohort count matching the recorded run (see the package doc).
type Recorder struct {
	trace     Trace
	cohortIdx map[string]int
	classIdx  map[metrics.ClassID]int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{cohortIdx: map[string]int{}, classIdx: map[metrics.ClassID]int{}}
}

// Register ensures the cohort has a dictionary slot even if it never
// arrives. Registration order fixes the dictionary order; Observe
// auto-registers unseen cohorts at first arrival.
func (r *Recorder) Register(cohort string) {
	if _, ok := r.cohortIdx[cohort]; ok {
		return
	}
	r.cohortIdx[cohort] = len(r.trace.Cohorts)
	r.trace.Cohorts = append(r.trace.Cohorts, cohort)
}

// Observe records one submission. It is shaped to sit directly behind
// the Driver's OnArrival hook.
func (r *Recorder) Observe(cohort string, t float64, class metrics.ClassID) {
	r.Register(cohort)
	ci, ok := r.classIdx[class]
	if !ok {
		ci = len(r.trace.Classes)
		r.classIdx[class] = ci
		r.trace.Classes = append(r.trace.Classes, class)
	}
	r.trace.Arrivals = append(r.trace.Arrivals, Arrival{T: t, Cohort: r.cohortIdx[cohort], Class: ci})
}

// Hook returns a workload.Config.OnArrival-shaped adapter that records
// under a fixed cohort name — for capturing a closed-loop emulator,
// which has no cohort concept of its own.
func (r *Recorder) Hook(cohort string) func(t float64, class metrics.ClassID) {
	r.Register(cohort)
	return func(t float64, class metrics.ClassID) { r.Observe(cohort, t, class) }
}

// Trace returns the recording so far. The recorder retains ownership;
// callers should be done recording before writing it out.
func (r *Recorder) Trace() *Trace { return &r.trace }

// Write encodes the trace in workload-trace-v2 format. It decodes its
// own encoding with ReadTrace first and writes nothing unless that
// succeeds, so the format is strict in both directions: a recording
// that ReadTrace would reject — say two runs concatenated, the second
// restarting its clock at 0 — fails at record time, not at replay.
func (t *Trace) Write(w io.Writer) error {
	b, err := t.checkedBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteFile writes the trace to path, truncating any existing file. A
// trace Write refuses leaves the file system untouched.
func (t *Trace) WriteFile(path string) error {
	b, err := t.checkedBytes()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o666); err != nil {
		return fmt.Errorf("wltemporal: writing trace %s: %w", path, err)
	}
	return nil
}

// checkedBytes is the trace's encoding, provided ReadTrace accepts it.
func (t *Trace) checkedBytes() ([]byte, error) {
	b := t.encode()
	if _, err := ReadTrace(bytes.NewReader(b)); err != nil {
		return nil, fmt.Errorf("wltemporal: refusing to write a trace no reader accepts: %w", err)
	}
	return b, nil
}

// encode lays the trace out in workload-trace-v2 format, unchecked.
func (t *Trace) encode() []byte {
	b := []byte(tracePrefix + string(rune(traceVersion)) + "\n")
	putString := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Cohorts)))
	for _, c := range t.Cohorts {
		putString(c)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Classes)))
	for _, c := range t.Classes {
		putString(c.App)
		putString(c.Class)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Arrivals)))
	for _, a := range t.Arrivals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.T))
		b = binary.AppendUvarint(b, uint64(a.Cohort))
		b = binary.AppendUvarint(b, uint64(a.Class))
	}
	return b
}

// ReadTrace decodes a workload-trace-v2 stream, validating framing,
// dictionary bounds and time monotonicity. Any trailing bytes after the
// final arrival are an error.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 6)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("wltemporal: trace header: %w", err)
	}
	if string(head[:4]) != tracePrefix || head[5] != '\n' {
		return nil, fmt.Errorf("wltemporal: not a workload trace (magic %q)", head)
	}
	if head[4] != traceVersion {
		return nil, fmt.Errorf("wltemporal: unsupported trace version %q (want %q)", head[4], traceVersion)
	}
	readUvarint := func(what string) (uint64, error) {
		var v uint64
		for i := 0; ; i++ {
			b, err := br.ReadByte()
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return 0, fmt.Errorf("wltemporal: truncated trace reading %s: %w", what, err)
			}
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("wltemporal: %s overflows a uvarint", what)
			}
			v |= uint64(b&0x7f) << (7 * i)
			if b < 0x80 {
				if b == 0 && i > 0 {
					return 0, fmt.Errorf("wltemporal: non-minimal uvarint encoding of %s", what)
				}
				return v, nil
			}
		}
	}
	readString := func(what string) (string, error) {
		n, err := readUvarint(what + " length")
		if err != nil {
			return "", err
		}
		if n > maxNameLen {
			return "", fmt.Errorf("wltemporal: implausible %s length %d", what, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("wltemporal: truncated trace reading %s: %w", what, err)
		}
		return string(b), nil
	}

	var t Trace
	nCohorts, err := readUvarint("cohort count")
	if err != nil {
		return nil, err
	}
	if nCohorts > maxDictLen {
		return nil, fmt.Errorf("wltemporal: implausible cohort count %d", nCohorts)
	}
	for i := uint64(0); i < nCohorts; i++ {
		name, err := readString("cohort name")
		if err != nil {
			return nil, err
		}
		t.Cohorts = append(t.Cohorts, name)
	}
	nClasses, err := readUvarint("class count")
	if err != nil {
		return nil, err
	}
	if nClasses > maxDictLen {
		return nil, fmt.Errorf("wltemporal: implausible class count %d", nClasses)
	}
	for i := uint64(0); i < nClasses; i++ {
		app, err := readString("class app")
		if err != nil {
			return nil, err
		}
		class, err := readString("class name")
		if err != nil {
			return nil, err
		}
		t.Classes = append(t.Classes, metrics.ClassID{App: app, Class: class})
	}
	nArrivals, err := readUvarint("arrival count")
	if err != nil {
		return nil, err
	}
	if nArrivals > maxArrivals {
		return nil, fmt.Errorf("wltemporal: implausible arrival count %d", nArrivals)
	}
	// The count is untrusted until the arrivals behind it have been
	// read: cap the preallocation so a short input cannot claim gigabytes.
	t.Arrivals = make([]Arrival, 0, min(nArrivals, 1<<16))
	var tbuf [8]byte
	prev := math.Inf(-1)
	for i := uint64(0); i < nArrivals; i++ {
		if _, err := io.ReadFull(br, tbuf[:]); err != nil {
			return nil, fmt.Errorf("wltemporal: truncated trace reading arrival %d time: %w", i, err)
		}
		at := math.Float64frombits(binary.LittleEndian.Uint64(tbuf[:]))
		if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
			return nil, fmt.Errorf("wltemporal: arrival %d has invalid time %v", i, at)
		}
		if at < prev {
			return nil, fmt.Errorf("wltemporal: arrival %d time %v precedes predecessor %v", i, at, prev)
		}
		prev = at
		ci, err := readUvarint("arrival cohort")
		if err != nil {
			return nil, err
		}
		if ci >= nCohorts {
			return nil, fmt.Errorf("wltemporal: arrival %d cohort index %d out of range (%d cohorts)", i, ci, nCohorts)
		}
		ki, err := readUvarint("arrival class")
		if err != nil {
			return nil, err
		}
		if ki >= nClasses {
			return nil, fmt.Errorf("wltemporal: arrival %d class index %d out of range (%d classes)", i, ki, nClasses)
		}
		t.Arrivals = append(t.Arrivals, Arrival{T: at, Cohort: int(ci), Class: int(ki)})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("wltemporal: trailing data after %d arrivals", nArrivals)
	}
	return &t, nil
}

// ReadTraceFile reads and decodes a workload-trace-v2 file.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("wltemporal: reading trace %s: %w", path, err)
	}
	return t, nil
}
