// Package anonymity implements the paper's §6.2 communication-anonymity
// machinery (and the decentralized variant of its companion report
// HPL-2001-204): peer browsers exchange documents without learning each
// other's identity.
//
// Two mechanisms are provided:
//
//   - Tickets: one-time opaque relay tokens. The proxy acts as an
//     anonymizing relay — it hands the holder a ticket-addressed drop
//     endpoint instead of the requester's address, so "the targeted client
//     does not know which client requests the document, and a requesting
//     client does not know which client delivers the content."
//
//   - Onions: layered symmetric encryption over a covert path of peers (the
//     "no or limited centralized control" variant). Each relay can decrypt
//     exactly one layer (AES-256-GCM), learning only the next hop; the
//     payload surfaces only at the terminal hop. The paper's era used DES;
//     AES is the modern stand-in in the identical protocol role.
package anonymity

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
)

// Ticket is an opaque one-time relay token.
type Ticket string

// NewTicket returns a fresh ticket: 128 bits of crypto/rand entropy,
// URL-safe. The holder it is handed to learns nothing from it; whoever
// issues it keeps the only record of what it stands for.
func NewTicket() (Ticket, error) {
	raw := make([]byte, 16)
	if _, err := rand.Read(raw); err != nil {
		return "", fmt.Errorf("anonymity: ticket entropy: %w", err)
	}
	return Ticket(base64.RawURLEncoding.EncodeToString(raw)), nil
}

// Hop names one relay on a covert path: the peer's id and its 32-byte
// AES-256 key (distributed out of band — in the live system, at
// registration).
type Hop struct {
	ID  int
	Key []byte
}

// terminal is the next-hop id stored in the innermost layer.
const terminal int32 = -1

// NewKey generates a 32-byte AES-256 key.
func NewKey() ([]byte, error) {
	k := make([]byte, 32)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("anonymity: key entropy: %w", err)
	}
	return k, nil
}

// BuildOnion wraps payload in one encryption layer per hop, outermost first:
// path[0] peels first and learns only path[1]'s id, and so on; the payload
// surfaces at the last hop.
func BuildOnion(path []Hop, payload []byte) ([]byte, error) {
	if len(path) == 0 {
		return nil, errors.New("anonymity: empty path")
	}
	msg := payload
	for i := len(path) - 1; i >= 0; i-- {
		next := terminal
		if i < len(path)-1 {
			next = int32(path[i+1].ID)
		}
		header := make([]byte, 4)
		binary.BigEndian.PutUint32(header, uint32(next))
		sealed, err := seal(path[i].Key, append(header, msg...))
		if err != nil {
			return nil, err
		}
		msg = sealed
	}
	return msg, nil
}

// Peel removes one layer with the hop's key. final reports that the
// remaining bytes are the payload; otherwise next is the id of the peer to
// forward rest to. Tampering with any layer is detected (AES-GCM).
func Peel(key, onion []byte) (next int, rest []byte, final bool, err error) {
	plain, err := open(key, onion)
	if err != nil {
		return 0, nil, false, err
	}
	if len(plain) < 4 {
		return 0, nil, false, errors.New("anonymity: short layer")
	}
	n := int32(binary.BigEndian.Uint32(plain[:4]))
	if n == terminal {
		return 0, plain[4:], true, nil
	}
	return int(n), plain[4:], false, nil
}

func seal(key, plaintext []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("anonymity: nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, plaintext, nil), nil
}

func open(key, sealed []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	ns := gcm.NonceSize()
	if len(sealed) < ns {
		return nil, errors.New("anonymity: ciphertext too short")
	}
	plain, err := gcm.Open(nil, sealed[:ns], sealed[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("anonymity: layer authentication failed: %w", err)
	}
	return plain, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("anonymity: key must be 32 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Route delivers an onion across an in-memory peer network — the reference
// implementation of the decentralized forwarding protocol, used by tests and
// the simulator-side overhead accounting. keys maps peer id → key; entry is
// the first hop's id. It returns the terminal payload and the number of
// hops traversed.
func Route(keys map[int][]byte, entry int, onion []byte) (payload []byte, hops int, err error) {
	cur := entry
	msg := onion
	for {
		key, ok := keys[cur]
		if !ok {
			return nil, hops, fmt.Errorf("anonymity: no key for peer %d", cur)
		}
		next, rest, final, err := Peel(key, msg)
		if err != nil {
			return nil, hops, err
		}
		hops++
		if final {
			return rest, hops, nil
		}
		cur = next
		msg = rest
	}
}
