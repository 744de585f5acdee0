package anonymity

import (
	"bytes"
	"encoding/base64"
	"testing"
	"testing/quick"
)

func TestNewTicketIs128Bits(t *testing.T) {
	tok, err := NewTicket()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := base64.RawURLEncoding.DecodeString(string(tok))
	if err != nil || len(raw) != 16 {
		t.Fatalf("ticket %q: %d bytes, err %v; want 16 URL-safe bytes", tok, len(raw), err)
	}
}

func TestTicketsUnique(t *testing.T) {
	seen := map[Ticket]bool{}
	for i := 0; i < 200; i++ {
		tok, err := NewTicket()
		if err != nil {
			t.Fatal(err)
		}
		if seen[tok] {
			t.Fatal("duplicate ticket issued")
		}
		seen[tok] = true
	}
}

func mustKey(t *testing.T) []byte {
	t.Helper()
	k, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestOnionSingleHop(t *testing.T) {
	k := mustKey(t)
	onion, err := BuildOnion([]Hop{{ID: 5, Key: k}}, []byte("the document"))
	if err != nil {
		t.Fatalf("BuildOnion: %v", err)
	}
	next, rest, final, err := Peel(k, onion)
	if err != nil {
		t.Fatalf("Peel: %v", err)
	}
	if !final || string(rest) != "the document" || next != 0 {
		t.Fatalf("Peel = next %d, %q, final %v", next, rest, final)
	}
}

func TestOnionMultiHopRouting(t *testing.T) {
	keys := map[int][]byte{1: mustKey(t), 2: mustKey(t), 3: mustKey(t)}
	path := []Hop{{ID: 1, Key: keys[1]}, {ID: 2, Key: keys[2]}, {ID: 3, Key: keys[3]}}
	payload := []byte("covert body")
	onion, err := BuildOnion(path, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, hops, err := Route(keys, 1, onion)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if hops != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("Route = %q after %d hops", got, hops)
	}
}

func TestOnionHopOnlyLearnsNextHop(t *testing.T) {
	keys := map[int][]byte{1: mustKey(t), 2: mustKey(t)}
	onion, _ := BuildOnion([]Hop{{ID: 1, Key: keys[1]}, {ID: 2, Key: keys[2]}}, []byte("p"))
	next, rest, final, err := Peel(keys[1], onion)
	if err != nil {
		t.Fatal(err)
	}
	if final {
		t.Fatal("first hop saw the payload")
	}
	if next != 2 {
		t.Fatalf("next = %d, want 2", next)
	}
	// The inner layer is ciphertext for hop 1: peeling it with hop 1's
	// key must fail (it is encrypted to hop 2).
	if _, _, _, err := Peel(keys[1], rest); err == nil {
		t.Fatal("hop 1 decrypted hop 2's layer")
	}
}

func TestOnionTamperDetected(t *testing.T) {
	k := mustKey(t)
	onion, _ := BuildOnion([]Hop{{ID: 1, Key: k}}, []byte("p"))
	onion[len(onion)-1] ^= 1
	if _, _, _, err := Peel(k, onion); err == nil {
		t.Fatal("tampered onion peeled")
	}
}

func TestOnionWrongKeyFails(t *testing.T) {
	onion, _ := BuildOnion([]Hop{{ID: 1, Key: mustKey(t)}}, []byte("p"))
	if _, _, _, err := Peel(mustKey(t), onion); err == nil {
		t.Fatal("wrong key peeled the onion")
	}
}

func TestOnionValidation(t *testing.T) {
	if _, err := BuildOnion(nil, []byte("p")); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := BuildOnion([]Hop{{ID: 1, Key: []byte("short")}}, []byte("p")); err == nil {
		t.Error("short key accepted")
	}
	if _, _, _, err := Peel(mustKey(t), []byte("tiny")); err == nil {
		t.Error("tiny ciphertext accepted")
	}
}

func TestRouteMissingKey(t *testing.T) {
	k := mustKey(t)
	onion, _ := BuildOnion([]Hop{{ID: 1, Key: k}, {ID: 9, Key: mustKey(t)}}, []byte("p"))
	if _, _, err := Route(map[int][]byte{1: k}, 1, onion); err == nil {
		t.Fatal("route with missing key succeeded")
	}
}

// TestQuickOnionRoundTrip: arbitrary payloads over arbitrary path lengths.
func TestQuickOnionRoundTrip(t *testing.T) {
	f := func(payload []byte, pathLen uint8) bool {
		n := int(pathLen%5) + 1
		keys := map[int][]byte{}
		path := make([]Hop, n)
		for i := 0; i < n; i++ {
			k, err := NewKey()
			if err != nil {
				t.Fatal(err)
			}
			keys[i+10] = k
			path[i] = Hop{ID: i + 10, Key: k}
		}
		onion, err := BuildOnion(path, payload)
		if err != nil {
			t.Errorf("BuildOnion: %v", err)
			return false
		}
		got, hops, err := Route(keys, 10, onion)
		if err != nil {
			t.Errorf("Route: %v", err)
			return false
		}
		return hops == n && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
