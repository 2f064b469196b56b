package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/sim"
)

func entry(t float64, kind string, src, dst hostid.ID) Entry {
	return Entry{T: t, Kind: kind, Src: src, Dst: dst}
}

func TestRecorderKeepsEntriesInOrder(t *testing.T) {
	r := NewRecorder(10)
	r.Add(entry(1, "a", 1, 2))
	r.Add(entry(2, "b", 2, 3))
	r.Add(entry(3, "c", 3, 4))
	got := r.Entries()
	if len(got) != 3 || got[0].Kind != "a" || got[2].Kind != "c" {
		t.Fatalf("Entries = %v", got)
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("Len=%d Total=%d", r.Len(), r.Total())
	}
}

func TestRecorderRingDiscardsOldest(t *testing.T) {
	r := NewRecorder(3)
	for i := 1; i <= 5; i++ {
		r.Add(entry(float64(i), "k", hostid.ID(i), 0))
	}
	got := r.Entries()
	if len(got) != 3 {
		t.Fatalf("kept %d entries, want 3", len(got))
	}
	if got[0].T != 3 || got[2].T != 5 {
		t.Fatalf("ring order wrong: %v", got)
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d", r.Total())
	}
}

func TestFilterPredicates(t *testing.T) {
	r := NewRecorder(10)
	r.Add(entry(1, "hello", 1, hostid.Broadcast))
	r.Add(entry(2, "data", 1, 2))
	r.Add(entry(3, "data", 3, 4))
	r.Add(entry(9, "rreq", 2, hostid.Broadcast))

	if got := r.Filter(ByKind("data")); len(got) != 2 {
		t.Fatalf("ByKind(data) = %v", got)
	}
	if got := r.Filter(ByKind("hello", "rreq")); len(got) != 2 {
		t.Fatalf("ByKind(hello,rreq) = %v", got)
	}
	if got := r.Filter(ByHost(1)); len(got) != 2 {
		t.Fatalf("ByHost(1) = %v", got)
	}
	if got := r.Filter(Between(2, 3)); len(got) != 2 {
		t.Fatalf("Between(2,3) = %v", got)
	}
	if got := r.Filter(ByKind("data"), ByHost(3)); len(got) != 1 {
		t.Fatalf("combined = %v", got)
	}
}

func TestRecordFormatsNote(t *testing.T) {
	r := NewRecorder(2)
	r.Record(1.5, "page", 1, 2, "wake %d", 42)
	e := r.Entries()[0]
	if e.Note != "wake 42" {
		t.Fatalf("Note = %q", e.Note)
	}
	if !strings.Contains(e.String(), "page") || !strings.Contains(e.String(), "host-1") {
		t.Fatalf("String = %q", e.String())
	}
}

func TestWriteAndSummarize(t *testing.T) {
	r := NewRecorder(10)
	r.Add(entry(1, "hello", 1, hostid.Broadcast))
	r.Add(entry(2, "data", 1, 2))
	r.Add(entry(3, "data", 2, 1))
	var buf bytes.Buffer
	if err := Write(&buf, r.Entries()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("wrote %d lines", lines)
	}
	if s := r.Summarize(); s != "data=2 hello=1" {
		t.Fatalf("Summarize = %q", s)
	}
}

func TestNewRecorderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}

// fakeEp is a minimal radio endpoint standing still at the origin.
type fakeEp struct {
	id  hostid.ID
	bat *energy.Battery
}

func (f *fakeEp) ID() hostid.ID            { return f.id }
func (f *fakeEp) Position() geom.Point     { return geom.Point{} }
func (f *fakeEp) MaxSpeedMS() float64      { return 0 }
func (f *fakeEp) Battery() *energy.Battery { return f.bat }
func (f *fakeEp) Deliver(*radio.Frame)     {}
func (f *fakeEp) TxFailed(*radio.Frame)    {}

func (f *fakeEp) NextExit(t float64, bounds geom.Rect) float64 {
	if bounds.Contains(f.Position()) {
		return math.Inf(1)
	}
	return t
}

func TestAttachRadioRecordsTransmissions(t *testing.T) {
	e := sim.NewEngine()
	ch := radio.NewChannel(e, sim.NewRNG(1), radio.DefaultConfig())
	ch.Attach(&fakeEp{id: 1, bat: energy.NewBattery(energy.PaperModel(), 100)})
	r := NewRecorder(10)
	r.AttachRadio(ch)
	e.Schedule(0.001, func() {
		ch.Send(1, &radio.Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 20})
	})
	e.Run(1)
	got := r.Filter(ByKind("hello"))
	if len(got) != 1 || got[0].Src != 1 {
		t.Fatalf("recorded = %v", got)
	}
	// The byte count is stored typed (no formatting on the sniffer hot
	// path) and must render exactly as the old eager "%dB" note did.
	if got[0].Bytes != 20 {
		t.Fatalf("bytes = %d", got[0].Bytes)
	}
	if s := got[0].String(); !strings.HasSuffix(s, " 20B") {
		t.Fatalf("rendered entry = %q, want trailing \" 20B\"", s)
	}
}

// TestEntryStringLazyBytesIdentical pins the lazy render: a typed Bytes
// field must produce exactly the line the old eager Sprintf("%dB") note
// produced, and an explicit Note must win over Bytes.
func TestEntryStringLazyBytesIdentical(t *testing.T) {
	lazy := Entry{T: 12.3456, Kind: "data", Src: 3, Dst: 9, Bytes: 148}
	eager := Entry{T: 12.3456, Kind: "data", Src: 3, Dst: 9, Note: "148B"}
	if lazy.String() != eager.String() {
		t.Fatalf("lazy render %q != eager render %q", lazy.String(), eager.String())
	}
	noted := Entry{T: 1, Kind: "x", Src: 1, Dst: 2, Note: "hand-written", Bytes: 99}
	if !strings.HasSuffix(noted.String(), "hand-written") {
		t.Fatalf("explicit note lost: %q", noted.String())
	}
}

func TestSummarizeRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	// 7 entries through a 4-slot ring: the first three fall off the
	// front, and the retained window wraps the backing array.
	kinds := []string{"a", "b", "a", "c", "b", "c", "c"}
	for i, k := range kinds {
		r.Add(entry(float64(i), k, 1, 2))
	}
	if r.Len() != 4 || r.Total() != 7 {
		t.Fatalf("Len=%d Total=%d, want 4 and 7", r.Len(), r.Total())
	}
	// Retained: b, c, c at the wrap plus b — i.e. kinds[3:] = c b c c.
	if got, want := r.Summarize(), "b=1 c=3"; got != want {
		t.Fatalf("Summarize() = %q, want %q", got, want)
	}
}
