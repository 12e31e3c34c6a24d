package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	minos "github.com/minoskv/minos"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/workload"
)

// front is a booted server behind its RESP front door, with one TCP
// connection to it. The native datapath idles: the server's cores poll
// an in-process fabric nobody sends on.
type front struct {
	srv    *minos.Server
	ln     net.Listener
	served chan struct{}
	conn   net.Conn
}

// bootFront constructs the server with its memory limit, writes the
// whole catalogue through the Backend API (so the store evicts down to
// the limit on the way), serves RESP on a loopback port and connects.
func bootFront(w workloadSpec, sc scale, cat *workload.Catalog) (*front, error) {
	userBytes := cat.TotalValueBytes() + int64(cat.NumKeys())*workload.KeySize
	srv, err := minos.NewServer(minos.NewFabric(serverCores).Server(),
		minos.WithCores(serverCores),
		minos.WithEpoch(sc.epoch),
		minos.WithMemoryLimit(int64(w.memShare*float64(userBytes))))
	if err != nil {
		return nil, err
	}
	filler := newFiller(workload.SmallMaxSize)
	var key []byte
	for id := 0; id < cat.NumKeys(); id++ {
		key = kv.AppendKeyForID(key[:0], uint64(id))
		if err := srv.Put(context.Background(), key, filler[:cat.Size(uint64(id))]); err != nil {
			return nil, err
		}
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, err
	}
	f := &front{srv: srv, ln: ln, served: make(chan struct{})}
	go func() {
		defer close(f.served)
		srv.ServeRESP(ln)
	}()
	if f.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *front) close() {
	if f.conn != nil {
		f.conn.Close()
	}
	f.ln.Close()
	<-f.served
	f.srv.Stop()
}

// respDriver is a pipelining RESP client: submit appends a command to
// the write buffer, flush sends the buffer in one write and reads the
// replies, which arrive in order.
type respDriver struct {
	l    *load
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	ops  []respOp
	key  []byte

	bytesOut, bytesIn int64
	errorReplies      int64
}

type respOp struct {
	req   workload.Request
	sched time.Time
}

func newRESPDriver(l *load, conn net.Conn, depth int) *respDriver {
	d := &respDriver{
		l:    l,
		conn: conn,
		wbuf: make([]byte, 0, depth*(64+workload.SmallMaxSize)),
		ops:  make([]respOp, 0, depth),
		key:  make([]byte, 0, workload.KeySize),
	}
	d.br = bufio.NewReaderSize(countingReader{conn, &d.bytesIn}, 64<<10)
	return d
}

type countingReader struct {
	conn net.Conn
	n    *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	*c.n += int64(n)
	return n, err
}

func appendBulk(b, v []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, '\r', '\n')
	b = append(b, v...)
	return append(b, '\r', '\n')
}

func (d *respDriver) submit(req workload.Request, sched time.Time) {
	d.key = kv.AppendKeyForID(d.key[:0], req.Key)
	if req.Op == workload.OpGet {
		d.wbuf = append(d.wbuf, "*2\r\n$3\r\nGET\r\n"...)
		d.wbuf = appendBulk(d.wbuf, d.key)
	} else {
		d.wbuf = append(d.wbuf, "*3\r\n$3\r\nSET\r\n"...)
		d.wbuf = appendBulk(d.wbuf, d.key)
		d.wbuf = appendBulk(d.wbuf, d.l.filler[:req.Size])
	}
	d.ops = append(d.ops, respOp{req: req, sched: sched})
}

func (d *respDriver) poll() int { return 0 }

func (d *respDriver) outstanding() int { return len(d.ops) }

func (d *respDriver) flush() {
	if len(d.ops) == 0 {
		return
	}
	_, err := d.conn.Write(d.wbuf)
	d.bytesOut += int64(len(d.wbuf))
	d.wbuf = d.wbuf[:0]
	for i := range d.ops {
		op := &d.ops[i]
		ok := err == nil
		if ok {
			ok, err = d.readReply(op.req)
		}
		d.l.done(op.req, time.Since(op.sched), ok)
	}
	if err != nil {
		d.l.complain("RESP connection: %v", err)
	}
	d.ops = d.ops[:0]
}

// readReply parses one reply and checks it against the request: +OK
// for a SET; for a GET a bulk string of the catalogued length and
// filler, or the nil bulk of a cache miss, which queues the fill.
func (d *respDriver) readReply(req workload.Request) (ok bool, err error) {
	line, err := d.br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	switch {
	case line[0] == '-':
		d.errorReplies++
		d.l.complain("%v key %d: server said %q", req.Op, req.Key, bytes.TrimSpace(line))
		return false, nil
	case req.Op == workload.OpPut:
		if !bytes.Equal(line, []byte("+OK\r\n")) {
			d.l.complain("SET key %d: reply %q", req.Key, line)
			return false, nil
		}
		return true, nil
	case line[0] != '$':
		d.l.complain("GET key %d: reply %q", req.Key, line)
		return false, nil
	}
	n, perr := strconv.Atoi(string(bytes.TrimSpace(line[1:])))
	if perr != nil {
		return false, fmt.Errorf("bulk header %q: %w", line, perr)
	}
	if n < 0 { // miss: write the item back, as a look-aside cache's user does
		if len(d.l.fills) < cap(d.l.fills) {
			d.l.fills = append(d.l.fills, req.Key)
		}
		return true, nil
	}
	body, err := d.br.Peek(n + 2)
	if err != nil {
		return false, err
	}
	d.l.hits++
	ok = d.l.valueOK(req.Key, body[:n]) && body[n] == '\r' && body[n+1] == '\n'
	if !ok {
		d.l.complain("GET key %d: %d bytes, catalogue says %d, or wrong filler", req.Key, n, req.Size)
	}
	_, err = d.br.Discard(n + 2)
	return ok, err
}

// info asks the server for INFO and returns the value of one field.
func (d *respDriver) info(field string) (int64, error) {
	if _, err := d.conn.Write([]byte("*1\r\n$4\r\nINFO\r\n")); err != nil {
		return 0, err
	}
	line, err := d.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(line[1:])))
	if err != nil || line[0] != '$' {
		return 0, fmt.Errorf("INFO reply %q", line)
	}
	body := make([]byte, n+2)
	if _, err := io.ReadFull(d.br, body); err != nil {
		return 0, err
	}
	for _, ln := range bytes.Split(body, []byte("\r\n")) {
		if name, value, found := bytes.Cut(ln, []byte(":")); found && string(name) == field {
			return strconv.ParseInt(string(value), 10, 64)
		}
	}
	return 0, fmt.Errorf("INFO has no %s", field)
}
