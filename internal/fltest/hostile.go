package fltest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"

	"fedcdp/internal/fl"
)

// HostilePeers are the ways a peer takes a round's session slot and fails
// it, by name. Each dials addr, misbehaves, and returns once its connection
// is closed; an error means it could not misbehave as described.
var HostilePeers = map[string]func(addr string) error{
	"connects and closes": func(addr string) error {
		return dialThen(addr, func(net.Conn) error { return nil })
	},
	"sends garbage": func(addr string) error {
		return dialThen(addr, func(c net.Conn) error {
			if _, err := c.Write(bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 64)); err != nil {
				return err
			}
			// Stay until the server has read it and hung up.
			_, err := io.Copy(io.Discard, c)
			return err
		})
	},
	"drops mid-update": func(addr string) error {
		return dialThen(addr, func(c net.Conn) error {
			var pm fl.ParamMsg
			if err := gob.NewDecoder(c).Decode(&pm); err != nil {
				return fmt.Errorf("reading the round announcement: %w", err)
			}
			var upd bytes.Buffer
			if err := gob.NewEncoder(&upd).Encode(&fl.UpdateMsg{ClientID: 0, Round: pm.Round, Weight: 1, Delta: pm.Params}); err != nil {
				return err
			}
			_, err := c.Write(upd.Bytes()[:upd.Len()/2])
			return err
		})
	},
}

func dialThen(addr string, misbehave func(net.Conn) error) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return misbehave(c)
}
