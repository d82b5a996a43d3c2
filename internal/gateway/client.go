package gateway

import (
	"fmt"
	"time"
)

// Client is a scripted websocket client for tests, the smoke harness,
// and the gate benchmark: synchronous ops with event waiting, one
// connection per client, no goroutines of its own.
type Client struct {
	ws *wsConn
}

// DialClient connects a client to a gateway server at addr.
func DialClient(addr string) (*Client, error) {
	ws, err := wsDial(addr, "/ws")
	if err != nil {
		return nil, err
	}
	return &Client{ws: ws}, nil
}

// Close closes the connection.
func (c *Client) Close() { c.ws.close() }

// Send encodes and sends one client op.
func (c *Client) Send(f Frame) error {
	buf, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	return c.ws.writeMessage(buf)
}

// SendRaw sends an arbitrary payload as one websocket binary message —
// the malformed-frame hammer for fuzz corpora replayed against a live
// gateway.
func (c *Client) SendRaw(payload []byte) error {
	return c.ws.writeMessage(payload)
}

// Recv returns the next decoded server event.
func (c *Client) Recv() (Frame, error) {
	payload, err := c.ws.readMessage()
	if err != nil {
		return Frame{}, err
	}
	return DecodeFrame(payload)
}

// SetDeadline bounds every subsequent read and write.
func (c *Client) SetDeadline(t time.Time) { c.ws.conn.SetDeadline(t) }

// WaitFor reads events until one of the wanted kind arrives for the
// room (empty room matches any), returning it. Other events are
// discarded — scripted clients know what they are waiting for.
func (c *Client) WaitFor(kind byte, room string) (Frame, error) {
	for {
		f, err := c.Recv()
		if err != nil {
			return Frame{}, err
		}
		if f.Kind == kind && (room == "" || f.Room == room) {
			return f, nil
		}
		if f.Kind == EvError && kind != EvError {
			return Frame{}, fmt.Errorf("gateway client: server error: %s", f.Msg)
		}
	}
}

// Join joins a room and waits for the join event, returning the room
// space's generation-tagged identity. The gateway follows every join
// with an initial EvState snapshot; Join consumes it so that a later
// Get never matches the stale initial state.
func (c *Client) Join(room string) (space int, gen uint64, err error) {
	if err := c.Send(Frame{Kind: OpJoin, Room: room}); err != nil {
		return 0, 0, err
	}
	f, err := c.WaitFor(EvJoined, room)
	if err != nil {
		return 0, 0, err
	}
	if _, err := c.WaitFor(EvState, room); err != nil {
		return 0, 0, err
	}
	return f.Space, f.Gen, nil
}

// Leave leaves a room and waits for the leave event.
func (c *Client) Leave(room string) error {
	if err := c.Send(Frame{Kind: OpLeave, Room: room}); err != nil {
		return err
	}
	_, err := c.WaitFor(EvLeft, room)
	return err
}

// Add applies a delta to a cell. Fire-and-forget: the apply is
// observed via deltas or a later Get.
func (c *Client) Add(room string, cell int, delta int64) error {
	return c.Send(Frame{Kind: OpAdd, Room: room, Cell: cell, Value: delta})
}

// Set writes a cell.
func (c *Client) Set(room string, cell int, value int64) error {
	return c.Send(Frame{Kind: OpSet, Room: room, Cell: cell, Value: value})
}

// Get fetches the room state.
func (c *Client) Get(room string) ([]int64, error) {
	if err := c.Send(Frame{Kind: OpGet, Room: room}); err != nil {
		return nil, err
	}
	f, err := c.WaitFor(EvState, room)
	if err != nil {
		return nil, err
	}
	return f.State, nil
}

// Checksum folds a room state into one value for parity checks.
func Checksum(state []int64) uint64 {
	var sum uint64
	for i, v := range state {
		sum = sum*1099511628211 + uint64(v) + uint64(i)
	}
	return sum
}
