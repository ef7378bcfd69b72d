package client

import (
	"bufio"
	"net"
	"sync"
	"time"

	"btr/internal/wire"
)

// Server is one replica's client-facing service: a TCP listener
// speaking Q frames over a RegisterStore, gated by a ViewState. It is
// deliberately passive — replication is client-driven, so the server
// needs no peer protocol, which is what lets it ride inside a node
// process without touching the BTR runtime's transport.
type Server struct {
	store *RegisterStore
	view  *ViewState

	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer starts serving on addr ("" or "127.0.0.1:0" for an
// ephemeral port; Addr reports what was bound).
func NewServer(addr string, store *RegisterStore, view *ViewState) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, view: view, ln: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs every client connection, and joins the
// server's goroutines. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

// serveConn handles one client connection: lockstep request/response.
// A malformed frame — the decode-side guards firing — drops the
// connection; a well-formed request always gets an answer. Requests are
// read into one buffer per connection and parsed in place: a request's
// bytes live until its answer is written, and the store copies the one
// thing it keeps, a written value. The store copies a read value into
// another buffer of the connection's.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	br := bufio.NewReader(nc)
	var in, out, val []byte
	for {
		// An idle client keeps the connection; only a dead read deadline
		// protects against half-open sockets holding goroutines forever.
		nc.SetReadDeadline(time.Now().Add(5 * time.Minute))
		typ, body, err := wire.ReadFrameInto(br, &in)
		if err != nil {
			return
		}
		if typ != wire.TypeQRequest {
			return
		}
		req, err := wire.ParseQRequest(body)
		if err != nil {
			return
		}
		resp := s.respond(req, &val)
		out, err = wire.AppendQResponse(out[:0], resp)
		if err != nil {
			return
		}
		nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// respond answers req; a read's value is appended to *val.
func (s *Server) respond(req wire.QRequest, val *[]byte) wire.QResponse {
	epoch, members, ok := s.view.check(req.Epoch)
	if !ok {
		return wire.QResponse{
			Status: wire.QStatusStaleView, OpID: req.OpID,
			Epoch: epoch, Members: members,
		}
	}
	switch req.Op {
	case wire.QOpGet:
		ts, writer, value := s.store.getKey(req.Key, *val)
		*val = value
		return wire.QResponse{
			Status: wire.QStatusOK, OpID: req.OpID, Epoch: epoch,
			TS: ts, Writer: writer, Value: value,
		}
	case wire.QOpSet:
		s.store.applyKey(req.Key, req.TS, req.Writer, req.Value)
		return wire.QResponse{
			Status: wire.QStatusOK, OpID: req.OpID, Epoch: epoch,
			TS: req.TS, Writer: req.Writer,
		}
	default:
		return wire.QResponse{Status: wire.QStatusErr, OpID: req.OpID, Epoch: epoch}
	}
}
