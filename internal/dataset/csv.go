package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// csvReader splits CSV input into records by the rules of encoding/csv's
// Reader at its defaults with a variable field count, which FuzzReadCSV
// holds it to: fields are separated by commas; a field that starts
// with a quote runs to the closing quote, with "" for a quote and
// newlines kept; \r\n reads as \n, a \r just before EOF is dropped,
// and empty lines are skipped. A quote inside an unquoted field, text
// after a closing quote and a quote left open at EOF are errors, as is
// any error of the underlying reader.
//
// It reads a line at a time, so a file is never held whole. The fields
// of a record point into a buffer the next read reuses.
type csvReader struct {
	br     *bufio.Reader
	long   []byte   // a line longer than br's buffer
	buf    []byte   // the record's fields, unquoted, end to end
	ends   []int    // field i is buf[ends[i-1]:ends[i]]
	fields [][]byte // the record's fields, into buf
	line   int      // lines read
}

func newCSVReader(r io.Reader) *csvReader {
	return &csvReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// readLine returns the next line, its \n kept, with encoding/csv's
// normalisation of line ends. It returns io.EOF only with no line.
func (c *csvReader) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.long = append(c.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = c.br.ReadSlice('\n')
			c.long = append(c.long, line...)
		}
		line = c.long
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	c.line++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL returns 1 when b ends in a newline, else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// read reads the next record into c.fields. It returns io.EOF when no
// record is left.
func (c *csvReader) read() error {
	var line []byte
	var err error
	for err == nil {
		if line, err = c.readLine(); err != nil || len(line) > lengthNL(line) {
			break
		}
	}
	if err != nil {
		return err
	}
	c.buf, c.ends = c.buf[:0], c.ends[:0]
	for more := true; more; {
		if len(line) == 0 || line[0] != '"' {
			i := 0
			for i < len(line) && line[i] != ',' && line[i] != '"' {
				i++
			}
			switch {
			case i < len(line) && line[i] == '"':
				return fmt.Errorf("line %d: bare \" in non-quoted field", c.line)
			case i < len(line):
				c.buf = append(c.buf, line[:i]...)
				line = line[i+1:]
			default:
				c.buf = append(c.buf, line[:i-lengthNL(line)]...)
				more = false
			}
			c.ends = append(c.ends, len(c.buf))
			continue
		}
		line = line[1:]
		for closed := false; !closed; {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				c.buf = append(c.buf, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) > 0 && line[0] == '"':
					c.buf = append(c.buf, '"')
					line = line[1:]
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					closed = true
				case len(line) == lengthNL(line):
					closed, more = true, false
				default:
					return fmt.Errorf("line %d: extraneous or missing \" in quoted field", c.line)
				}
			case len(line) > 0:
				// The field goes on past this line's end.
				c.buf = append(c.buf, line...)
				if line, err = c.readLine(); err != nil && err != io.EOF {
					return err
				}
			default:
				return fmt.Errorf("line %d: extraneous or missing \" in quoted field", c.line)
			}
		}
		c.ends = append(c.ends, len(c.buf))
	}
	c.fields = c.fields[:0]
	for i, end := range c.ends {
		start := 0
		if i > 0 {
			start = c.ends[i-1]
		}
		c.fields = append(c.fields, c.buf[start:end:end])
	}
	return nil
}
