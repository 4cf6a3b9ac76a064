package fltest

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"

	"fedcdp/internal/fl"
)

// HostilePeers are the ways a peer takes a round's session slot and fails
// it, by name. Each dials addr, misbehaves, and returns once its connection
// is closed; an error means it could not misbehave as described. They work
// against a server of either wire codec.
var HostilePeers = map[string]func(addr string) error{
	"connects and closes": func(addr string) error {
		return dialThen(addr, func(net.Conn) error { return nil })
	},
	"sends garbage": func(addr string) error {
		return dialThen(addr, func(c net.Conn) error {
			if _, err := c.Write(bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 64)); err != nil {
				return err
			}
			// Stay until the server hangs up: a gob server after reading it
			// all, a binary one after the first byte, with a reset for the
			// bytes it left unread.
			io.Copy(io.Discard, c)
			return nil
		})
	},
	"drops mid-update": func(addr string) error {
		return dialThen(addr, func(c net.Conn) error {
			// The announcement's first byte tells the codecs apart: 0x00
			// opens every binary frame and no gob stream.
			var first [1]byte
			if _, err := io.ReadFull(c, first[:]); err != nil {
				return fmt.Errorf("reading the round announcement: %w", err)
			}
			var upd []byte
			var err error
			if first[0] == 0 {
				upd, err = binaryUpdate(first[0], c)
			} else {
				upd, err = gobUpdate(io.MultiReader(bytes.NewReader(first[:]), c))
			}
			if err != nil {
				return fmt.Errorf("reading the round announcement: %w", err)
			}
			_, err = c.Write(upd[:len(upd)/2])
			return err
		})
	},
}

// gobUpdate reads a gob round announcement and returns the update a client
// would answer it with.
func gobUpdate(r io.Reader) ([]byte, error) {
	var pm fl.ParamMsg
	if err := gob.NewDecoder(r).Decode(&pm); err != nil {
		return nil, err
	}
	var upd bytes.Buffer
	err := gob.NewEncoder(&upd).Encode(&fl.UpdateMsg{ClientID: 0, Round: pm.Round, Weight: 1, Delta: pm.Params})
	return upd.Bytes(), err
}

// binaryUpdate reads the rest of a binary announcement frame and returns an
// update frame of the same length. Per DESIGN.md "Wire codec", a frame is a
// 12-byte header — magic and version in bytes 0–4, the kind in byte 5, the
// payload length in bytes 8–12 — then the payload; kind 2 is an update.
func binaryUpdate(first byte, r io.Reader) ([]byte, error) {
	frame := make([]byte, 12)
	frame[0] = first
	if _, err := io.ReadFull(r, frame[1:]); err != nil {
		return nil, err
	}
	payload := make([]byte, binary.LittleEndian.Uint32(frame[8:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	frame[5] = 2
	return append(frame, payload...), nil
}

func dialThen(addr string, misbehave func(net.Conn) error) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return misbehave(c)
}
