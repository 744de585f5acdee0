package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"baps/internal/bufpool"
)

// Segment data files hold nothing but body records, appended back to back:
//
//	[u32 magic][u32 bodyLen][u32 crc32(body)][body bytes]
//
// Keys and metadata live in the journal; a segment is pure payload, so
// reclaiming one is a single unlink. Bodies are verified against their CRC
// on every read — silent media corruption surfaces as ErrCorrupt, never as
// a wrong document.
//
// Appends write straight through to the file (a record's region is
// immutable once journaled), so concurrent ReadAt-based reads never need a
// lock against the writer; durability beyond the OS page cache is the
// store's fsync policy.
const (
	segMagic       = 0x42415053 // "BAPS"
	recordOverhead = 12         // magic + len + crc
	segGlob        = "seg-*.dat"
)

// errBadRecord reports a body record whose framing or CRC is damaged.
var errBadRecord = errors.New("diskstore: bad segment record")

func segName(id uint32) string { return fmt.Sprintf("seg-%08d.dat", id) }

func segIDFromName(name string) (uint32, bool) {
	var id uint32
	if _, err := fmt.Sscanf(name, "seg-%08d.dat", &id); err != nil {
		return 0, false
	}
	return id, true
}

// segment is one data file. size is owned by the store's mutex (appends
// happen under it); reads are positioned and lock-free.
type segment struct {
	id   uint32
	path string
	f    *os.File
	size int64
}

func createSegment(path string, id uint32) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{id: id, path: path, f: f}, nil
}

func openSegment(path string, id uint32) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segment{id: id, path: path, f: f, size: fi.Size()}, nil
}

// append writes one body record, returning the record's offset.
func (s *segment) append(body []byte) (int64, error) {
	off := s.size
	var hdr [recordOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(body))
	if _, err := s.f.WriteAt(hdr[:], off); err != nil {
		return 0, err
	}
	if _, err := s.f.WriteAt(body, off+recordOverhead); err != nil {
		return 0, err
	}
	s.size += recordOverhead + int64(len(body))
	return off, nil
}

func (s *segment) sync() error { return fsync(s.f) }

// readHeader validates the record framing at off against the journal's
// length claim.
func (s *segment) readHeader(off, length int64) (crc uint32, err error) {
	var hdr [recordOverhead]byte
	if _, err := s.f.ReadAt(hdr[:], off); err != nil {
		return 0, errBadRecord
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != segMagic ||
		int64(binary.LittleEndian.Uint32(hdr[4:])) != length {
		return 0, errBadRecord
	}
	return binary.LittleEndian.Uint32(hdr[8:]), nil
}

// read returns the verified body at off (a fresh buffer the caller owns —
// this is the promote-to-memory path, where the bytes live on in the hot
// tier).
func (s *segment) read(off, length int64) ([]byte, error) {
	want, err := s.readHeader(off, length)
	if err != nil {
		return nil, err
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(io.NewSectionReader(s.f, off+recordOverhead, length), body); err != nil {
		return nil, errBadRecord
	}
	if crc32.ChecksumIEEE(body) != want {
		return nil, errBadRecord
	}
	return body, nil
}

// readTo streams the verified body at off into w through a pooled
// size-classed buffer — the serve-without-promote path allocates nothing
// per read. The CRC is computed as the bytes stream; a mismatch surfaces
// after the copy (the receiving end of an HTTP response detects the abort
// mid-body), and the entry is dropped either way.
func (s *segment) readTo(w io.Writer, off, length int64) (int64, error) {
	want, err := s.readHeader(off, length)
	if err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	src := io.NewSectionReader(s.f, off+recordOverhead, length)
	n, err := bufpool.CopySized(io.MultiWriter(w, crc), src, length)
	if err != nil {
		return n, err
	}
	if n != length || crc.Sum32() != want {
		return n, errBadRecord
	}
	return n, nil
}

func (s *segment) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}
