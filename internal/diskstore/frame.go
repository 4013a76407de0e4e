package diskstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// One frame is the durable form of one store entry, appended to a segment
// file. Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "AFS1"
//	4       2     key length
//	6       2     engine-version length
//	8       4     body length
//	12      8     exec cost (nanoseconds of engine time that produced body)
//	20      k     key bytes (the content address, as the caller spells it)
//	20+k    e     engine-version bytes
//	20+k+e  b     body bytes
//	…       4     CRC32-C over everything above (magic through body)
//
// The trailing checksum makes torn writes and bit rot detectable: a frame
// whose CRC does not verify is dead data, never servable bytes. The
// header's length fields are bounded (maxKeyLen/maxEngineLen/maxBodyLen),
// so a corrupted header is recognizably implausible rather than an excuse
// to allocate gigabytes.

const (
	frameMagic   = 0x31534641 // "AFS1" read little-endian
	headerLen    = 20
	crcLen       = 4
	maxKeyLen    = 1 << 12
	maxEngineLen = 1 << 8
	maxBodyLen   = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors, ordered by how much of the segment they condemn:
// errChecksum dooms one frame (the framing itself was plausible, so the
// scan can step over it); errCorrupt means the framing cannot be trusted
// from here on; errTorn means the segment simply ends mid-frame.
var (
	errTorn     = errors.New("diskstore: torn frame (segment ends mid-frame)")
	errCorrupt  = errors.New("diskstore: corrupt frame header")
	errChecksum = errors.New("diskstore: frame checksum mismatch")
)

// frame is the decoded form of one entry.
type frame struct {
	key    string
	engine string
	execNs uint64
	body   []byte
}

// frameSize returns the encoded size of a frame with the given payload
// lengths.
func frameSize(keyLen, engineLen, bodyLen int) int64 {
	return int64(headerLen + keyLen + engineLen + bodyLen + crcLen)
}

// appendFrame appends f's encoding to buf and returns the extended slice.
func appendFrame(buf []byte, f *frame) []byte {
	start := len(buf)
	var h [headerLen]byte
	binary.LittleEndian.PutUint32(h[0:], frameMagic)
	binary.LittleEndian.PutUint16(h[4:], uint16(len(f.key)))
	binary.LittleEndian.PutUint16(h[6:], uint16(len(f.engine)))
	binary.LittleEndian.PutUint32(h[8:], uint32(len(f.body)))
	binary.LittleEndian.PutUint64(h[12:], f.execNs)
	buf = append(buf, h[:]...)
	buf = append(buf, f.key...)
	buf = append(buf, f.engine...)
	buf = append(buf, f.body...)
	crc := crc32.Checksum(buf[start:], castagnoli)
	var c [crcLen]byte
	binary.LittleEndian.PutUint32(c[:], crc)
	return append(buf, c[:]...)
}

// frameLen checks the plausibility of the frame header at data[0] and
// returns the frame's full encoded length, which may exceed len(data). It
// fails with errTorn when data is shorter than a header and errCorrupt
// when the header cannot be a frame's.
func frameLen(data []byte) (int, error) {
	if len(data) < headerLen {
		return 0, errTorn
	}
	if binary.LittleEndian.Uint32(data[0:]) != frameMagic {
		return 0, errCorrupt
	}
	keyLen := int(binary.LittleEndian.Uint16(data[4:]))
	engineLen := int(binary.LittleEndian.Uint16(data[6:]))
	bodyLen := int(binary.LittleEndian.Uint32(data[8:]))
	if keyLen == 0 || keyLen > maxKeyLen || engineLen > maxEngineLen || bodyLen > maxBodyLen {
		return 0, errCorrupt
	}
	return int(frameSize(keyLen, engineLen, bodyLen)), nil
}

// decodeFrame parses the frame starting at data[0]. On success it returns
// the frame and its encoded length. On errChecksum n is still the frame's
// full length, so a scan can skip the dead frame and keep going; on
// errTorn or errCorrupt the rest of data is unusable.
//
// The returned body aliases data; key and engine are copied (they outlive
// the scan buffer as index state).
func decodeFrame(data []byte) (f frame, n int, err error) {
	total, err := frameLen(data)
	if err != nil {
		return frame{}, 0, err
	}
	if len(data) < total {
		return frame{}, 0, errTorn
	}
	want := binary.LittleEndian.Uint32(data[total-crcLen:])
	if crc32.Checksum(data[:total-crcLen], castagnoli) != want {
		return frame{}, total, errChecksum
	}
	keyLen := int(binary.LittleEndian.Uint16(data[4:]))
	engineLen := int(binary.LittleEndian.Uint16(data[6:]))
	bodyLen := int(binary.LittleEndian.Uint32(data[8:]))
	off := headerLen
	f.key = string(data[off : off+keyLen])
	off += keyLen
	f.engine = string(data[off : off+engineLen])
	off += engineLen
	f.body = data[off : off+bodyLen : off+bodyLen]
	f.execNs = binary.LittleEndian.Uint64(data[12:])
	return f, total, nil
}
