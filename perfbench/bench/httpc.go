package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"time"
)

// Conn is a minimal HTTP/1.1 keep-alive client over one TCP connection. It
// writes pre-encoded request bytes and reads one response per request,
// with a Content-Length or chunked body. It is not safe for concurrent use:
// each sending goroutine owns one Conn.
type Conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

// Dial connects to addr (host:port).
func Dial(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // the default; set for clarity of intent
	}
	return &Conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// DialN opens n connections to addr, one per sending goroutine.
func DialN(addr string, n int) ([]*Conn, error) {
	var cs []*Conn
	for range n {
		c, err := Dial(addr)
		if err != nil {
			CloseAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// CloseAll closes every connection.
func CloseAll(cs []*Conn) {
	for _, c := range cs {
		c.Close()
	}
}

// EncodeGET encodes a GET request for target (path and query).
func EncodeGET(host, target string) []byte {
	return []byte("GET " + target + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
}

// EncodePOST encodes a JSON POST request.
func EncodePOST(host, path string, body []byte) []byte {
	h := "POST " + path + " HTTP/1.1\r\nHost: " + host +
		"\r\nContent-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(h), body...)
}

// Do sends one encoded request and reads the response, appending the body
// to buf[:0]. A transport error leaves the connection unusable; the caller
// redials.
func (c *Conn) Do(req []byte, buf []byte) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, buf, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, buf, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, buf, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, buf, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, buf, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return status, buf, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return status, buf, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	body = buf[:0]
	switch {
	case chunked:
		body, err = c.readChunked(body)
	case length >= 0:
		body, err = c.readN(body, length)
	default:
		err = errors.New("response without length")
	}
	return status, body, err
}

func (c *Conn) readN(dst []byte, n int) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	_, err := io.ReadFull(c.br, dst[start:])
	return dst, err
}

func (c *Conn) readChunked(dst []byte) ([]byte, error) {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return dst, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseInt(string(line), 16, 32)
		if err != nil {
			return dst, fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			// Trailers (none expected) end with an empty line.
			for {
				t, err := c.br.ReadSlice('\n')
				if err != nil {
					return dst, err
				}
				if len(bytes.TrimRight(t, "\r\n")) == 0 {
					return dst, nil
				}
			}
		}
		if dst, err = c.readN(dst, int(n)); err != nil {
			return dst, err
		}
		if _, err := c.br.Discard(2); err != nil { // chunk CRLF
			return dst, err
		}
	}
}
