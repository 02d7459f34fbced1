package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// The push stream is Server-Sent Events (WHATWG HTML §9.2): the hub
// writes each message as one `data: <json>` line plus a blank line, and
// Stream reads it back. The reader follows the spec's rules (comments and
// other fields skipped, multi-line data joined by "\n"), so any SSE
// source reads the same way; lines end at LF or CRLF.

// pushMaxMessage bounds one message's data (full snapshots of a 100k-node
// run stay well under this).
const pushMaxMessage = 64 << 20

// ErrClosed is returned by Next once the stream ends — the clean
// end-of-stream signal for `kkt ws` and tests.
var ErrClosed = errors.New("serve: push stream closed")

// readLine returns the next line without its LF or CRLF ending, or
// ErrClosed at the end of the stream. A line of more than max bytes,
// counting its ending, is an error: the buffer never grows past the bound.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		if len(line)+len(frag) > max {
			return nil, fmt.Errorf("serve: push stream line exceeds %d bytes", max)
		}
		line = append(line, frag...)
		switch err {
		case nil:
			return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
		case bufio.ErrBufferFull:
		case io.EOF, io.ErrUnexpectedEOF:
			return nil, ErrClosed
		default:
			return nil, err
		}
	}
}

// readEvent returns the data of the next event: its data lines joined by
// "\n", at most max bytes. A blank line ends an event; one without data
// lines dispatches nothing. The stream ending, even mid-event, returns
// ErrClosed (the spec discards an unterminated event).
func readEvent(br *bufio.Reader, max int) ([]byte, error) {
	var data []byte
	hasData := false
	for {
		line, err := readLine(br, max+len("data: \r\n"))
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			if hasData {
				return data, nil
			}
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		if string(field) != "data" {
			continue // a comment (empty field) or a field the stream does not use
		}
		value = bytes.TrimPrefix(value, []byte(" "))
		if hasData {
			data = append(data, '\n')
		}
		if len(data)+len(value) > max {
			return nil, fmt.Errorf("serve: push stream message exceeds %d bytes", max)
		}
		data = append(data, value...)
		hasData = true
	}
}

// Stream is a subscribed client connection — what `kkt ws` and the smoke
// tests read the push stream with.
type Stream struct {
	conn net.Conn
	br   *bufio.Reader
}

// Subscribe requests the push stream at an http://host:port/path URL and
// returns once the response headers arrive, by which time the hub has
// registered the subscriber. timeout bounds the dial and the headers
// (0 = none).
func Subscribe(rawURL string, timeout time.Duration) (*Stream, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, err
	}
	if req.URL.Scheme != "http" || req.URL.Port() == "" {
		return nil, fmt.Errorf("serve: push stream URL %q: want http://host:port/path", rawURL)
	}
	conn, err := net.DialTimeout("tcp", req.URL.Host, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	var resp *http.Response
	if err = req.Write(conn); err == nil {
		resp, err = http.ReadResponse(bufio.NewReader(conn), req)
	}
	if err == nil && (resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")) {
		err = fmt.Errorf("serve: %s is not an event stream: %s, Content-Type %q", rawURL, resp.Status, resp.Header.Get("Content-Type"))
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return &Stream{conn: conn, br: bufio.NewReader(resp.Body)}, nil
}

// Next returns the next message, waiting at most timeout (0 = no bound),
// or ErrClosed once the server ends the stream.
func (s *Stream) Next(timeout time.Duration) ([]byte, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	s.conn.SetReadDeadline(deadline)
	return readEvent(s.br, pushMaxMessage)
}

// Close tears down the connection; the hub drops the subscriber.
func (s *Stream) Close() error { return s.conn.Close() }
