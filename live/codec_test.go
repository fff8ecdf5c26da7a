package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sampleFrames returns one fully populated message per wire kind: every
// field the kind carries on the wire is set to a distinctive value, and
// no field it does not carry is set — so a decoded frame must DeepEqual
// its sample, pinning the encoder and decoder to the same per-kind
// field projection.
func sampleFrames() []*message {
	return []*message{
		{Kind: kindHello, Seq: 101, TraceSeq: 11, TraceNode: "w1",
			Name:    "w1",
			Resume:  []ResumePoint{{Task: 7, Offset: 4096}, {Task: 9, Offset: 0}},
			Holding: []uint64{3, 7, 9, 1 << 40}},
		{Kind: kindRequest, Seq: 102, TraceSeq: 12, TraceNode: "w1",
			N: 3, App: "tenant-a"},
		{Kind: kindChunk, Seq: 103, TraceSeq: 13, TraceNode: "root",
			Task: 42, Size: 8192, Offset: 4096, Data: []byte("chunk payload bytes"),
			Last: true, App: "tenant-a"},
		{Kind: kindResult, Seq: 104, TraceSeq: 14, TraceNode: "w1",
			Task: 42, Output: []byte("result output"), Origin: "w1-leaf", App: "tenant-b"},
		{Kind: kindShutdown, Seq: 105, TraceSeq: 15, TraceNode: "root"},
		{Kind: kindHeartbeat, Seq: 106},
		{Kind: kindChunkAck, Seq: 107, TraceSeq: 17, TraceNode: "w1",
			Task: 42, Offset: 8192, Last: true},
		{Kind: kindHelloAck, Seq: 108, TraceSeq: 18, TraceNode: "root",
			Name: "root", Revived: true, Accepted: []uint64{7, 9}},
		{Kind: kindGoodbye, Seq: 109, TraceSeq: 19, TraceNode: "w1"},
		{Kind: kindResultAck, Seq: 110, TraceSeq: 20, TraceNode: "root",
			Task: 42, Origin: "w1-leaf"},
	}
}

// TestSampleFramesCoverEveryKind pins the conformance test to the wire
// protocol: adding a wire kind without a sample frame fails here, so the
// round-trip checks below can never silently skip a kind.
func TestSampleFramesCoverEveryKind(t *testing.T) {
	seen := map[msgKind]bool{}
	for _, m := range sampleFrames() {
		if seen[m.Kind] {
			t.Fatalf("duplicate sample for kind %d", m.Kind)
		}
		seen[m.Kind] = true
	}
	for k := kindHello; k <= kindResultAck; k++ {
		if !seen[k] {
			t.Fatalf("no sample frame for wire kind %d", k)
		}
	}
	if len(seen) != int(kindResultAck) {
		t.Fatalf("%d samples for %d kinds", len(seen), kindResultAck)
	}
}

// binaryRoundTrip encodes m with appendFrame and decodes it back through
// readFrame + decodeFrame, exactly the production read path.
func binaryRoundTrip(t *testing.T, m *message, in *interner) *message {
	t.Helper()
	buf, err := appendFrame(nil, m)
	if err != nil {
		t.Fatalf("appendFrame(kind %d): %v", m.Kind, err)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	body, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("readFrame(kind %d): %v", m.Kind, err)
	}
	var out message
	if err := decodeFrame(body, &out, in); err != nil {
		t.Fatalf("decodeFrame(kind %d): %v", m.Kind, err)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatalf("kind %d: frame bytes left over after one decode", m.Kind)
	}
	return &out
}

// TestCodecConformanceMatrix round-trips every wire kind through the
// production encode and read path and requires the decode to equal the
// sample field by field — trace context, App tags and handshake fields
// included. A field the codec forgets to carry (or carries differently)
// fails here immediately.
func TestCodecConformanceMatrix(t *testing.T) {
	var in interner
	for _, m := range sampleFrames() {
		if got := binaryRoundTrip(t, m, &in); !reflect.DeepEqual(got, m) {
			t.Errorf("kind %d: round-trip mismatch\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

// TestBinaryFramesAreContiguous pins the batched-write invariant: frames
// appended back to back into one buffer decode back to back with no gap
// bytes — what sendBatch relies on to ship a batch in one write.
func TestBinaryFramesAreContiguous(t *testing.T) {
	samples := sampleFrames()
	var buf []byte
	var err error
	for _, m := range samples {
		if buf, err = appendFrame(buf, m); err != nil {
			t.Fatalf("appendFrame(kind %d): %v", m.Kind, err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var in interner
	var body []byte
	for i, want := range samples {
		if body, err = readFrame(br, body); err != nil {
			t.Fatalf("frame %d: readFrame: %v", i, err)
		}
		var out message
		if err := decodeFrame(body, &out, &in); err != nil {
			t.Fatalf("frame %d: decodeFrame: %v", i, err)
		}
		if !reflect.DeepEqual(&out, want) {
			t.Fatalf("frame %d (kind %d) mismatch after batched encode", i, want.Kind)
		}
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatalf("gap or trailing bytes between batched frames")
	}
}

// legacyGobHello is a hello as nodes that predate the binary framing
// sent it: a gob stream carrying the type definition of the old message
// envelope, then message{Kind: kindHello, Name: "legacy", Codecs: [1]}.
var legacyGobHello = []byte{
	0xff, 0xda, 0x7f, 0x03, 0x01, 0x01, 0x07, 0x6d, 0x65, 0x73, 0x73, 0x61,
	0x67, 0x65, 0x01, 0xff, 0x80, 0x00, 0x01, 0x13, 0x01, 0x04, 0x4b, 0x69,
	0x6e, 0x64, 0x01, 0x06, 0x00, 0x01, 0x04, 0x4e, 0x61, 0x6d, 0x65, 0x01,
	0x0c, 0x00, 0x01, 0x06, 0x52, 0x65, 0x73, 0x75, 0x6d, 0x65, 0x01, 0xff,
	0x84, 0x00, 0x01, 0x07, 0x48, 0x6f, 0x6c, 0x64, 0x69, 0x6e, 0x67, 0x01,
	0xff, 0x86, 0x00, 0x01, 0x07, 0x52, 0x65, 0x76, 0x69, 0x76, 0x65, 0x64,
	0x01, 0x02, 0x00, 0x01, 0x08, 0x41, 0x63, 0x63, 0x65, 0x70, 0x74, 0x65,
	0x64, 0x01, 0xff, 0x86, 0x00, 0x01, 0x01, 0x4e, 0x01, 0x04, 0x00, 0x01,
	0x04, 0x54, 0x61, 0x73, 0x6b, 0x01, 0x06, 0x00, 0x01, 0x04, 0x53, 0x69,
	0x7a, 0x65, 0x01, 0x04, 0x00, 0x01, 0x06, 0x4f, 0x66, 0x66, 0x73, 0x65,
	0x74, 0x01, 0x04, 0x00, 0x01, 0x04, 0x44, 0x61, 0x74, 0x61, 0x01, 0x0a,
	0x00, 0x01, 0x04, 0x4c, 0x61, 0x73, 0x74, 0x01, 0x02, 0x00, 0x01, 0x06,
	0x4f, 0x75, 0x74, 0x70, 0x75, 0x74, 0x01, 0x0a, 0x00, 0x01, 0x06, 0x4f,
	0x72, 0x69, 0x67, 0x69, 0x6e, 0x01, 0x0c, 0x00, 0x01, 0x03, 0x53, 0x65,
	0x71, 0x01, 0x06, 0x00, 0x01, 0x09, 0x54, 0x72, 0x61, 0x63, 0x65, 0x4e,
	0x6f, 0x64, 0x65, 0x01, 0x0c, 0x00, 0x01, 0x08, 0x54, 0x72, 0x61, 0x63,
	0x65, 0x53, 0x65, 0x71, 0x01, 0x06, 0x00, 0x01, 0x03, 0x41, 0x70, 0x70,
	0x01, 0x0c, 0x00, 0x01, 0x06, 0x43, 0x6f, 0x64, 0x65, 0x63, 0x73, 0x01,
	0x0a, 0x00, 0x00, 0x00, 0x21, 0xff, 0x83, 0x02, 0x01, 0x01, 0x12, 0x5b,
	0x5d, 0x6c, 0x69, 0x76, 0x65, 0x2e, 0x52, 0x65, 0x73, 0x75, 0x6d, 0x65,
	0x50, 0x6f, 0x69, 0x6e, 0x74, 0x01, 0xff, 0x84, 0x00, 0x01, 0xff, 0x82,
	0x00, 0x00, 0x2d, 0xff, 0x81, 0x03, 0x01, 0x01, 0x0b, 0x52, 0x65, 0x73,
	0x75, 0x6d, 0x65, 0x50, 0x6f, 0x69, 0x6e, 0x74, 0x01, 0xff, 0x82, 0x00,
	0x01, 0x02, 0x01, 0x04, 0x54, 0x61, 0x73, 0x6b, 0x01, 0x06, 0x00, 0x01,
	0x06, 0x4f, 0x66, 0x66, 0x73, 0x65, 0x74, 0x01, 0x04, 0x00, 0x00, 0x00,
	0x16, 0xff, 0x85, 0x02, 0x01, 0x01, 0x08, 0x5b, 0x5d, 0x75, 0x69, 0x6e,
	0x74, 0x36, 0x34, 0x01, 0xff, 0x86, 0x00, 0x01, 0x06, 0x00, 0x00, 0x10,
	0xff, 0x80, 0x01, 0x01, 0x01, 0x06, 0x6c, 0x65, 0x67, 0x61, 0x63, 0x79,
	0x11, 0x01, 0x01, 0x00,
}

// TestForeignHelloRejected pins the version policy — reject, never
// mis-parse: a peer whose first frame is not a binary hello (here the
// gob hello of a pre-binary build) is closed without a reply, long
// before HandshakeTimeout, and never becomes a child. A real child that
// dials next is admitted and the run completes exactly-once.
func TestForeignHelloRejected(t *testing.T) {
	const handshake = 10 * time.Second
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		Compute: echoCompute(5 * time.Millisecond), HandshakeTimeout: handshake,
	})

	raw := dialParent(t, root.Addr())
	if _, err := raw.Write(legacyGobHello); err != nil {
		t.Fatalf("write gob hello: %v", err)
	}
	start := time.Now()
	_ = raw.SetReadDeadline(start.Add(handshake / 2))
	n, err := raw.Read(make([]byte, 64))
	if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("foreign hello: read %d reply bytes (err %v), want the conn closed without a reply", n, err)
	}
	t.Logf("foreign hello dropped after %v", time.Since(start))

	startNode(t, Config{Name: "w1", Parent: root.Addr(), Buffers: 3, Compute: echoCompute(0)})
	tasks := makeTasks(16, 1024)
	results, err := root.RunTimeout(tasks, 30*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertExactlyOnce(t, results, len(tasks))
	root.mu.Lock()
	defer root.mu.Unlock()
	if len(root.children) != 1 || root.children[0].name != "w1" {
		t.Fatalf("root admitted %d children, want only w1", len(root.children))
	}
}

// TestSilentDialerDoesNotBlockAdmission: dialers that connect and never
// send a hello must not hold up the children that dial after them — each
// handshake waits on its own conn, not in the accept loop — nor the
// root's Close. The children dial concurrently, so several handshakes
// are in flight at once.
func TestSilentDialerDoesNotBlockAdmission(t *testing.T) {
	const handshake = 3 * time.Second
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		Compute: echoCompute(5 * time.Millisecond), HandshakeTimeout: handshake,
	})
	for i := 0; i < 3; i++ {
		dialParent(t, root.Addr()) // connects, then stays silent
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := StartConfig(Config{
				Name: name, Parent: root.Addr(), Buffers: 3,
				Compute: echoCompute(0), HandshakeTimeout: handshake,
			})
			if err != nil {
				errs <- err
				return
			}
			t.Cleanup(func() { w.Close() })
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("start child: %v", err)
	}
	tasks := makeTasks(32, 1024)
	results, err := root.RunTimeout(tasks, 30*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertExactlyOnce(t, results, len(tasks))
	if d := time.Since(start); d > handshake/2 {
		t.Fatalf("child admission and run took %v behind silent dialers, want well under HandshakeTimeout %v", d, handshake)
	}
	root.mu.Lock()
	admitted := len(root.children)
	root.mu.Unlock()
	if admitted != 2 {
		t.Fatalf("root admitted %d children, want w1 and w2 only", admitted)
	}
	// Close cuts the silent dialers' handshakes instead of waiting them out.
	start = time.Now()
	root.Close()
	if d := time.Since(start); d > handshake/2 {
		t.Fatalf("Close took %v with handshakes pending, want well under HandshakeTimeout %v", d, handshake)
	}
}

// dialParent opens a raw TCP connection to a node's listener for
// scripted peers.
func dialParent(t *testing.T, addr string) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { raw.Close() })
	return raw
}

// scriptedConn wraps a raw test connection in the node's own framing, so
// a scripted peer speaks exactly what a real node speaks.
func scriptedConn(raw net.Conn) *conn {
	return newConn(raw, "script", nil, 0, new(atomic.Uint64), nil)
}

// recvTask consumes one complete task over a scripted link — acking
// every chunk, skipping other frames — and returns its ID and assembled
// payload.
func recvTask(c *conn) (uint64, []byte, error) {
	var payload []byte
	for {
		m, err := c.recv()
		if err != nil {
			return 0, nil, err
		}
		if m.Kind != kindChunk {
			continue
		}
		if payload == nil {
			payload = make([]byte, m.Size)
		}
		copy(payload[m.Offset:], m.Data)
		if err := c.send(&message{Kind: kindChunkAck, Task: m.Task,
			Offset: m.Offset + len(m.Data), Last: m.Last}); err != nil {
			return 0, nil, err
		}
		if m.Last {
			return m.Task, payload, nil
		}
	}
}

// FuzzDecodeFrame drives the binary read path with arbitrary bytes:
// truncated frames, oversized length prefixes, and unknown kinds must
// all error — never panic, never fabricate frame bytes, and never
// allocate more than the bytes actually presented (plus one read step).
// A frame that does decode must re-encode and re-decode to the same
// message (the decoder accepts nothing the encoder cannot produce).
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range sampleFrames() {
		buf, err := appendFrame(nil, m)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(buf)
	}
	// Hand-built hostile seeds: empty input, a lying oversized length
	// prefix, a truncated body, an unknown kind.
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add(binary.AppendUvarint(nil, maxFrameBytes-1))
	f.Add(append(binary.AppendUvarint(nil, 100), 3, 1))
	f.Add(append(binary.AppendUvarint(nil, 3), 250, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var in interner
		var buf []byte
		for {
			body, err := readFrame(br, buf)
			buf = body[:cap(body)]
			if err != nil {
				return // truncated/oversized input must stop the stream cleanly
			}
			if len(body) > len(data) {
				t.Fatalf("readFrame returned %d bytes from %d input bytes", len(body), len(data))
			}
			if cap(body) > 2*len(data)+frameReadStep {
				t.Fatalf("readFrame over-allocated: cap %d for %d input bytes", cap(body), len(data))
			}
			var m message
			if err := decodeFrame(body, &m, &in); err != nil {
				continue // malformed body; the next length prefix still frames the stream
			}
			reenc, err := appendFrame(nil, &m)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v (%+v)", err, m)
			}
			rebr := bufio.NewReader(bytes.NewReader(reenc))
			rebody, err := readFrame(rebr, nil)
			if err != nil {
				t.Fatalf("re-encoded frame does not re-read: %v", err)
			}
			var m2 message
			if err := decodeFrame(rebody, &m2, &in); err != nil {
				t.Fatalf("re-encoded frame does not re-decode: %v", err)
			}
			// Compare before the next readFrame reuses the buffer m.Data
			// aliases.
			if !reflect.DeepEqual(&m, &m2) {
				t.Fatalf("re-encode round-trip mismatch:\n first %+v\nsecond %+v", m, m2)
			}
		}
	})
}
