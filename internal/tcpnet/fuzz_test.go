package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// testMsg, testStamp and testAck are the envelope every
// encodeTestFrame frame carries: distinct values in every header field,
// so a decoder that mixes two fields up cannot round-trip them.
var testMsg = amnet.Msg{Dst: 1, Src: 2, Handler: 7, A: 0xdeadbeef, B: 0xb0b, C: 0xc0c0, D: 1<<63 | 0xd}

const (
	testStamp = 0x5eed_0000_1234
	testAck   = 0xacc_0000_0042
)

// encodeTestFrame builds a well-formed frame with Send's encoder and
// stamps its ack as the writer would.
func encodeTestFrame(seq uint64, payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	putHeader(buf, &testMsg, testStamp, seq)
	binary.LittleEndian.PutUint64(buf[ackOff:], testAck)
	copy(buf[frameHeader:], payload)
	return buf
}

// FuzzReadFrame feeds arbitrary byte streams to the frame decoder. The
// invariants under fuzz: readFrame never panics, never allocates a
// payload beyond the frame limit, returns frames whose payload length
// matches the header, and terminates (an error ends the stream, exactly
// as a reader goroutine treats a corrupt connection), and every decoded
// handler id indexes the handler table (< amnet.MaxHandlers).
func FuzzReadFrame(f *testing.F) {
	f.Add(encodeTestFrame(1, []byte("hello fabric")))
	f.Add(encodeTestFrame(0, nil)) // control frame
	// Control frame acking a sequence number no sender ever journaled:
	// the decoder passes it through, and the sender's ack() must treat
	// it as a no-op (see TestAckNeverJournaledIgnored).
	bogusAck := encodeTestFrame(0, nil)
	binary.LittleEndian.PutUint64(bogusAck[ackOff:], ^uint64(0))
	f.Add(bogusAck)
	// The same bogus ack riding a data frame's header: the frame is
	// delivered and its ack dropped (see TestHostileAckOnDataFrameIgnored).
	bogusDataAck := encodeTestFrame(1, []byte("x"))
	binary.LittleEndian.PutUint64(bogusDataAck[ackOff:], ^uint64(0))
	f.Add(bogusDataAck)
	f.Add(encodeTestFrame(1, nil)[:10])
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a frame header at all.."))
	// Length prefix shorter than a header.
	short := encodeTestFrame(1, nil)
	binary.LittleEndian.PutUint32(short[0:], 3)
	f.Add(short)
	// Oversized length prefix: must be rejected before allocation.
	huge := encodeTestFrame(1, nil)
	binary.LittleEndian.PutUint32(huge[0:], 0xffffffff)
	f.Add(huge)
	// Length prefix just past the limit.
	past := encodeTestFrame(1, nil)
	binary.LittleEndian.PutUint32(past[0:], uint32(maxFrameTotal+1))
	f.Add(past)
	// Header promises more payload than the stream carries.
	trunc := encodeTestFrame(1, make([]byte, 100))
	f.Add(trunc[:frameHeader+10])
	// Two valid frames back to back.
	f.Add(append(encodeTestFrame(1, []byte("a")), encodeTestFrame(2, []byte("b"))...))
	// A frame carrying a real encoded checkpoint: rejoin ships these
	// over the fabric verbatim, so the corpus should mutate from the
	// ACK2 layout (magic, cursors, proto names, region table).
	ckpt := core.EncodeCheckpoint(&core.Checkpoint{
		Rank: 1, Procs: 4, CollSeq: 12, NextSeq: 3, App: 2,
		Protos: []string{"sc", "update"},
		Regions: []core.CheckpointRegion{
			{ID: 1, Space: 0, Size: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{ID: 2, Space: 1, Size: 4, Data: []byte{9, 8, 7, 6}},
		},
	})
	f.Add(encodeTestFrame(5, ckpt))
	// The same checkpoint cut off mid-region-table: the frame itself is
	// well-formed (the length prefix matches), so the decoder must hand
	// the truncated payload up intact for DecodeCheckpoint to reject.
	f.Add(encodeTestFrame(6, ckpt[:len(ckpt)/2]))
	// Journal replay past a checkpoint: a rejoiner resumes from the
	// checkpoint cut while the sender's journal still holds frames with
	// sequence numbers far beyond it. Seed that shape — a checkpoint
	// frame followed by a data frame whose seq jumps past it — so the
	// fuzzer explores reordered/stale-seq streams around the cut.
	replay := append(encodeTestFrame(7, ckpt), encodeTestFrame(1<<40, []byte("journal tail"))...)
	f.Add(replay)
	// A handler id one past the table: rejected by the decoder.
	noHandler := encodeTestFrame(1, nil)
	binary.LittleEndian.PutUint16(noHandler[12:], amnet.MaxHandlers)
	f.Add(noHandler)

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		consumed := 0
		for {
			fr, err := readFrame(br)
			if err != nil {
				// Whatever the input, decoding must end in a clean error
				// (typically io.EOF / ErrUnexpectedEOF) — never a panic.
				break
			}
			if len(fr.msg.Payload) > maxFramePayload {
				t.Fatalf("decoded payload of %d bytes exceeds limit %d", len(fr.msg.Payload), maxFramePayload)
			}
			if int(fr.msg.Handler) >= amnet.MaxHandlers {
				t.Fatalf("decoded handler %d, table holds %d", fr.msg.Handler, amnet.MaxHandlers)
			}
			amnet.Recycle(fr.msg.Payload)
			consumed++
			if consumed > len(data) {
				t.Fatal("decoded more frames than input bytes — decoder not consuming")
			}
		}
		// A partial trailing frame must not have consumed unbounded
		// memory; nothing to assert beyond not-panicking, but make sure
		// the reader really is exhausted or errored.
		if _, err := br.Peek(1); err == nil && consumed == 0 && len(data) >= frameHeader {
			// The decoder refused the stream without consuming it fully:
			// fine (validation error), as long as it errored above.
			_ = err
		}
	})
}

// TestReadFrameRejectsOversizedLength pins the allocation guard: a
// length prefix past the limit errors out before any payload
// allocation is attempted.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	buf := encodeTestFrame(1, nil)
	binary.LittleEndian.PutUint32(buf[0:], 0xfffffff0)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(buf)))
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("oversized frame surfaced as %v, want a validation error", err)
	}
}

// TestReadFrameRoundTrip pins the codec against Send's encoder.
func TestReadFrameRoundTrip(t *testing.T) {
	payload := []byte("round trip payload")
	stream := append(encodeTestFrame(3, payload), encodeTestFrame(4, nil)...)
	br := bufio.NewReader(bytes.NewReader(stream))
	for _, want := range []struct {
		seq     uint64
		payload []byte
	}{{3, payload}, {4, nil}} {
		f, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		m := f.msg
		if f.seq != want.seq || f.sent != testStamp || f.ack != testAck || string(m.Payload) != string(want.payload) || (m.Payload == nil) != (want.payload == nil) {
			t.Fatalf("frame seq %d: got seq %d, stamp %#x, ack %#x, payload %q", want.seq, f.seq, f.sent, f.ack, m.Payload)
		}
		w := testMsg
		if m.Dst != w.Dst || m.Src != w.Src || m.Handler != w.Handler || m.A != w.A || m.B != w.B || m.C != w.C || m.D != w.D {
			t.Fatalf("frame seq %d: envelope %+v, want %+v", want.seq, m, w)
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}
}
