package diskstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The index journal is a flat append-only file of CRC-framed records:
//
//	[u32 payloadLen][u8 kind][u32 crc32(kind||payload)][payload]
//
// Record kinds:
//
//	jPut    key gained (or replaced) a body at (segment, offset, length),
//	        with document meta (version, stamp, digest) and one reserved
//	        length-prefixed field, written empty: journals from before
//	        watermarks became derived-on-demand stored the signature there,
//	        and replay skips whatever it holds
//	jDel    key's entry was dropped (delete, eviction, or corruption)
//	jTouch  key was read; stamp refreshes its recency
//	jState  opaque owner-state blob (stats counters, client table,
//	        generations) — the latest valid one wins
//
// Replay applies records in order; the store is consistent at every record
// boundary, so a torn tail (crash mid-append) is detected by length/CRC
// and truncated rather than trusted. A CRC mismatch mid-file cannot be
// skipped safely (the framing is length-prefixed, so one bad length loses
// the reader), so replay stops there too — everything before the first
// damaged byte survives, which is the WAL contract.
const (
	jPut   = 1
	jDel   = 2
	jTouch = 3
	jState = 4

	recHeaderSize = 9 // len + kind + crc

	journalName = "journal.wal"

	// maxRecordSize bounds a single journal record; anything claiming to
	// be larger is framing damage, not data.
	maxRecordSize = 64 << 20
)

// record is one decoded journal record (a union over the kinds).
type record struct {
	kind byte
	key  string

	// jPut fields.
	seg     uint32
	off     int64
	length  int64
	version int64
	digest  []byte

	// jPut and jTouch.
	stamp int64

	// jState payload.
	blob []byte
}

// putRecordSize estimates the journal bytes of a put record for key.
func putRecordSize(key string, meta Meta) int {
	return recHeaderSize + 2 + len(key) + 4 + 8 + 8 + 8 + 8 + 2 + len(meta.Digest) + 2
}

// encodePayload renders a record's payload (everything after the header).
func encodePayload(rec record) []byte {
	var b []byte
	putStr := func(s string) {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	putBytes := func(p []byte) {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(p)))
		b = append(b, p...)
	}
	switch rec.kind {
	case jPut:
		putStr(rec.key)
		b = binary.LittleEndian.AppendUint32(b, rec.seg)
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.off))
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.length))
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.version))
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.stamp))
		putBytes(rec.digest)
		putBytes(nil) // reserved (formerly the stored watermark)
	case jDel:
		putStr(rec.key)
	case jTouch:
		putStr(rec.key)
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.stamp))
	case jState:
		b = append(b, rec.blob...)
	}
	return b
}

// errShortPayload reports a record whose payload is too small for its kind
// — framing damage caught after the CRC (a corrupted length that still
// checksummed is astronomically unlikely, but decode stays defensive).
var errShortPayload = errors.New("diskstore: short journal payload")

// decodePayload parses a payload back into rec (kind already set).
func decodePayload(kind byte, p []byte) (record, error) {
	rec := record{kind: kind}
	getStr := func() (string, error) {
		if len(p) < 2 {
			return "", errShortPayload
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n {
			return "", errShortPayload
		}
		s := string(p[:n])
		p = p[n:]
		return s, nil
	}
	getBytes := func() ([]byte, error) {
		if len(p) < 2 {
			return nil, errShortPayload
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < n {
			return nil, errShortPayload
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]byte, n)
		copy(out, p[:n])
		p = p[n:]
		return out, nil
	}
	getU64 := func() (uint64, error) {
		if len(p) < 8 {
			return 0, errShortPayload
		}
		v := binary.LittleEndian.Uint64(p)
		p = p[8:]
		return v, nil
	}
	var err error
	switch kind {
	case jPut:
		if rec.key, err = getStr(); err != nil {
			return rec, err
		}
		if len(p) < 4 {
			return rec, errShortPayload
		}
		rec.seg = binary.LittleEndian.Uint32(p)
		p = p[4:]
		var v uint64
		if v, err = getU64(); err != nil {
			return rec, err
		}
		rec.off = int64(v)
		if v, err = getU64(); err != nil {
			return rec, err
		}
		rec.length = int64(v)
		if v, err = getU64(); err != nil {
			return rec, err
		}
		rec.version = int64(v)
		if v, err = getU64(); err != nil {
			return rec, err
		}
		rec.stamp = int64(v)
		if rec.digest, err = getBytes(); err != nil {
			return rec, err
		}
		if _, err = getBytes(); err != nil { // reserved; old journals hold a signature
			return rec, err
		}
	case jDel:
		if rec.key, err = getStr(); err != nil {
			return rec, err
		}
	case jTouch:
		if rec.key, err = getStr(); err != nil {
			return rec, err
		}
		var v uint64
		if v, err = getU64(); err != nil {
			return rec, err
		}
		rec.stamp = int64(v)
	case jState:
		rec.blob = make([]byte, len(p))
		copy(rec.blob, p)
	default:
		return rec, errShortPayload
	}
	return rec, nil
}

// journal is the append handle. Appends are buffered (flushed by the
// store's fsync policy); the file is only ever read at Open.
type journal struct {
	path string
	f    *os.File
	w    *bufio.Writer
	size int64 // logical size including buffered bytes
}

// replayResult is what openJournal recovered.
type replayResult struct {
	records        []record
	truncatedTail  bool
	corruptRecords int64
}

// openJournal reads every valid record, truncates any torn tail, and
// returns an append handle positioned after the last good record.
func openJournal(path string) (*journal, replayResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, replayResult{}, err
	}
	var res replayResult
	r := bufio.NewReaderSize(f, 1<<20)
	var good int64 // offset after the last fully valid record
	for {
		var hdr [recHeaderSize]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err != io.EOF {
				res.truncatedTail = true
			}
			break
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:]))
		kind := hdr[4]
		want := binary.LittleEndian.Uint32(hdr[5:])
		if plen > maxRecordSize || kind < jPut || kind > jState {
			res.truncatedTail = true
			break
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			res.truncatedTail = true
			break
		}
		crc := crc32.NewIEEE()
		crc.Write([]byte{kind})
		crc.Write(payload)
		if crc.Sum32() != want {
			res.truncatedTail = true
			break
		}
		rec, err := decodePayload(kind, payload)
		if err != nil {
			// Structurally invalid but checksummed: a writer bug, not
			// media damage. Skip just this record — framing is intact.
			res.corruptRecords++
			good += recHeaderSize + plen
			continue
		}
		res.records = append(res.records, rec)
		good += recHeaderSize + plen
	}
	if res.truncatedTail {
		res.corruptRecords++
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, res, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, res, err
	}
	return &journal{path: path, f: f, w: bufio.NewWriterSize(f, 256<<10), size: good}, res, nil
}

// append stages one record (buffered; flush per the store's fsync policy).
func (j *journal) append(rec record) error {
	payload := encodePayload(rec)
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	hdr[4] = rec.kind
	crc := crc32.NewIEEE()
	crc.Write([]byte{rec.kind})
	crc.Write(payload)
	binary.LittleEndian.PutUint32(hdr[5:], crc.Sum32())
	if _, err := j.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := j.w.Write(payload); err != nil {
		return err
	}
	j.size += recHeaderSize + int64(len(payload))
	return nil
}

func (j *journal) flush() error { return j.w.Flush() }

// fsync forces a journal or segment file to stable storage; tests swap it
// to make one fsync fail.
var fsync = (*os.File).Sync

// sync flushes the buffered records and forces them to stable storage.
func (j *journal) sync() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	return fsync(j.f)
}

// abandonTail cuts everything past size — a record whose sync failed — off
// the journal file, so a restore cannot serve it. Best-effort: the failure
// may be the handle's own, and then nothing past size reached the file.
func (j *journal) abandonTail(size int64) {
	if j.f.Truncate(size) == nil {
		j.f.Seek(size, io.SeekStart)
	}
	j.size = size
}

// close drops the handle without flushing — the crash path. Graceful
// shutdown flushes explicitly first (Store.Close).
func (j *journal) close() {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// rewriteJournal writes a compact journal via a temp file + atomic rename.
// emitAll streams the records to keep; the new handle is returned.
func rewriteJournal(path string, emitAll func(emit func(record) error) error) (*journal, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	nj := &journal{path: path, f: f, w: bufio.NewWriterSize(f, 256<<10)}
	if err := emitAll(nj.append); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := nj.flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	// The rename is durable only once the directory is. The new journal is
	// in place either way, so it is returned with the error.
	return nj, SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making a rename inside it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
