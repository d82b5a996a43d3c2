package gateway

import (
	"net"
	"net/http"
	"sync/atomic"
)

// Server accepts websocket sessions for a Gateway over HTTP.
type Server struct {
	g  *Gateway
	ln net.Listener
	hs *http.Server
}

// Serve starts accepting websocket upgrades on ln at any path. It
// returns immediately; Close stops the listener.
func (g *Gateway) Serve(ln net.Listener) *Server {
	s := &Server{g: g, ln: ln}
	s.hs = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go s.hs.Serve(ln)
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and closes the listener. Live sessions die
// with their connections.
func (s *Server) Close() error { return s.hs.Close() }

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	ws, err := upgrade(w, r)
	if err != nil {
		return // upgrade already answered the HTTP side
	}
	sess := &session{
		g:      s.g,
		ws:     ws,
		id:     s.g.nextSID.Add(1),
		out:    make(chan []byte, s.g.cfg.SendQueue),
		done:   make(chan struct{}),
		joined: make(map[string]struct{}),
	}
	s.g.stats.SessionsOpened.Add(1)
	go sess.writeLoop()
	sess.readLoop()
}

// session is one connected client. The reader goroutine decodes ops
// and routes them; the writer goroutine drains the bounded send queue.
// joined is the reader-side membership view, touched only by the
// coordinator (requests are processed single-threaded there).
type session struct {
	g    *Gateway
	ws   *wsConn
	id   uint64
	out  chan []byte
	done chan struct{}

	closed atomic.Bool
	drops  atomic.Int64 // consecutive SlowDrop drops

	joined map[string]struct{} // coordinator-owned
}

func (s *session) isClosed() bool { return s.closed.Load() }

// closeSession makes the writer exit and the connection die; the
// reader then unblocks with an error and files the disconnect.
func (s *session) closeSession() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.done)
		s.ws.conn.Close()
	}
}

// send enqueues one encoded event frame, applying the slow-client
// policy when the bounded queue is full. Never blocks: a home
// processor must not stall behind one slow client.
func (s *session) send(frame []byte) {
	if s.closed.Load() {
		return
	}
	select {
	case s.out <- frame:
		s.drops.Store(0)
		s.g.stats.FramesOut.Add(1)
		s.g.stats.ObserveSendQueue(len(s.out))
	default:
		switch s.g.cfg.Policy {
		case SlowClose:
			s.g.stats.SlowClients.Add(1)
			s.closeSession()
		default: // SlowDrop
			s.g.stats.SendQueueDrops.Add(1)
			if int(s.drops.Add(1)) > s.g.cfg.DropBudget {
				s.g.stats.SlowClients.Add(1)
				s.closeSession()
			}
		}
	}
}

// sendFrame encodes and enqueues one event.
func (s *session) sendFrame(f Frame) {
	buf, err := EncodeFrame(f)
	if err != nil {
		return
	}
	s.send(buf)
}

// writeLoop drains the send queue onto the websocket.
func (s *session) writeLoop() {
	for {
		select {
		case <-s.done:
			s.ws.close()
			return
		case frame := <-s.out:
			if err := s.ws.writeMessage(frame); err != nil {
				s.closeSession()
				return
			}
		}
	}
}

// request files a request with the coordinator, giving up if the
// gateway is shutting down (the coordinator no longer drains reqCh).
func (s *session) request(req request) {
	select {
	case s.g.reqCh <- req:
	case <-s.g.coDone:
	}
}

// readLoop decodes client frames and routes them: joins and leaves to
// the coordinator, data ops onto the room's op queue and its home.
// Malformed frames are counted and answered with EvError — never a
// panic, and never a crashed session for a recoverable decode error.
func (s *session) readLoop() {
	defer func() {
		s.closeSession()
		s.request(request{kind: reqDisconnect, sess: s})
	}()
	for {
		payload, err := s.ws.readMessage()
		if err != nil {
			return // io error, close, or a malformed websocket frame
		}
		s.g.stats.FramesIn.Add(1)
		f, err := DecodeFrame(payload)
		if err != nil {
			s.g.stats.BadFrames.Add(1)
			s.sendFrame(Frame{Kind: EvError, Room: f.Room, Msg: err.Error()})
			continue
		}
		switch f.Kind {
		case OpJoin:
			s.request(request{kind: reqJoin, room: f.Room, sess: s})
		case OpLeave:
			s.request(request{kind: reqLeave, room: f.Room, sess: s})
		case OpSet, OpAdd, OpGet:
			s.g.mu.Lock()
			rm := s.g.rooms[f.Room]
			s.g.mu.Unlock()
			if rm == nil {
				s.g.stats.OpsDropped.Add(1)
				s.sendFrame(Frame{Kind: EvError, Room: f.Room, Msg: "no such room"})
				continue
			}
			s.g.enqueueOp(rm, roomOp{f: f, sess: s})
		default:
			// Server-to-client kinds arriving from a client.
			s.g.stats.BadFrames.Add(1)
			s.sendFrame(Frame{Kind: EvError, Room: f.Room, Msg: "not a client op"})
		}
	}
}
