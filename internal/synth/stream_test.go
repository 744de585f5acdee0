package synth

import (
	"reflect"
	"testing"

	"baps/internal/trace"
)

// The streamed trace must satisfy the same statistics as the in-memory one.
func TestStreamStatsMatchGenerate(t *testing.T) {
	p := Scaled(profileCAnetII(), 0.05)
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Compute(tr)
	g, err := NewStream(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.StreamStats(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestMillionClientsProfileValid(t *testing.T) {
	p := MillionClients()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, err := ByName("synth-1m"); err != nil || got.Clients != p.Clients {
		t.Fatalf("ByName(synth-1m) = %+v, %v", got, err)
	}
	for _, q := range Profiles() {
		if q.Name == p.Name {
			t.Fatal("synth-1m must stay out of the sweep set")
		}
	}
}
