// Package jffs2sim implements a JFFS2-like log-structured flash file
// system on a simulated MTD character device.
//
// The paper includes JFFS2 to show MCFS handling file systems that mount
// on special devices: JFFS2 needs an MTD device (provided via mtdram),
// and MCFS reaches the flash contents for state tracking through the
// mtdblock bridge (§4, Figure 1). This reproduction keeps that shape:
// jffs2sim programs internal/blockdev.MTD directly, and the remount
// tracker snapshots the flash through blockdev.MTDBlock.
//
// Like real JFFS2, everything on flash is a log node: inode nodes carry
// file data or truncations, dirent nodes carry directory updates (with a
// zero inode number acting as a deletion marker). Mounting scans the
// entire device and replays nodes in version order to rebuild the
// in-memory state — which is why JFFS2 remounts are expensive, a cost the
// paper's per-operation remount policy pays continually. Garbage
// collection compacts live state into erased blocks when the log fills.
package jffs2sim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"time"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/simclock"
	"mcfs/internal/vfs"
)

// Node format constants.
const (
	// NodeMagic marks every log node (JFFS2's real magic, 0x1985).
	NodeMagic = 0x1985
	// nodeInode is an inode node: metadata plus an optional data payload.
	nodeInode = 1
	// nodeDirent is a directory-entry node.
	nodeDirent = 2
	// MaxDataPerNode bounds the payload of one inode node; large writes
	// split into multiple nodes, like JFFS2's page-sized writes.
	MaxDataPerNode = 512
	// RootIno is the root directory's inode number.
	RootIno = 1

	nodeHeader = 16 // magic(2) type(2) totLen(4) version(4) crc(4)
)

// FS is a mounted jffs2sim volume. All state lives in memory after the
// mount-time scan; flash holds the durable log.
type FS struct {
	mtd   *blockdev.MTD
	clock *simclock.Clock

	inodes  map[uint32]*inodeInfo
	nextIno uint32
	version uint32 // global node version counter

	// log write head
	curBlock int
	curOff   int
	// per-eraseblock used bytes (live + dead); dead tracked for GC stats
	blockUsed []int

	unmounted bool
}

type inodeInfo struct {
	mode    vfs.Mode
	nlink   uint32
	uid     uint32
	gid     uint32
	size    int64
	atime   time.Duration
	mtime   time.Duration
	ctime   time.Duration
	content []byte
	target  string
	entries map[string]uint32
	order   []string
	parent  uint32
}

var _ vfs.FS = (*FS)(nil)
var _ vfs.RenameFS = (*FS)(nil)
var _ vfs.LinkFS = (*FS)(nil)
var _ vfs.SymlinkFS = (*FS)(nil)
var _ vfs.Typer = (*FS)(nil)

// Mkfs erases the whole MTD device, leaving an empty log. An empty log
// mounts as an empty file system with just the root directory.
func Mkfs(mtd *blockdev.MTD) error {
	blocks := int(mtd.Size()) / mtd.EraseSize()
	for i := 0; i < blocks; i++ {
		if err := mtd.Erase(i); err != nil {
			return err
		}
	}
	return nil
}

// Mount scans the full flash device, replaying log nodes in version order
// to rebuild the in-memory file system.
func Mount(mtd *blockdev.MTD, clock *simclock.Clock) (*FS, error) {
	f := &FS{
		mtd:       mtd,
		clock:     clock,
		inodes:    make(map[uint32]*inodeInfo),
		nextIno:   RootIno + 1,
		blockUsed: make([]int, int(mtd.Size())/mtd.EraseSize()),
	}
	f.inodes[RootIno] = &inodeInfo{
		mode:    vfs.ModeDir | 0755,
		nlink:   2,
		entries: make(map[string]uint32),
		parent:  RootIno,
	}

	// Full device scan, in place: payloads point into the flash, so the
	// scan, the sort and the replay all run inside one read view and
	// replay copies whatever the in-memory state keeps.
	type scanned struct {
		version uint32
		typ     uint16
		pos     int // scan position: the node's byte offset on the device
		payload []byte
	}
	es := mtd.EraseSize()
	err := mtd.View(func(v *blockdev.MTDView) error {
		var nodes []scanned
		for blk := range f.blockUsed {
			buf, err := v.EraseBlock(blk)
			if err != nil {
				return err
			}
			pos := 0
			sealed := false
			for pos+nodeHeader <= es {
				le := binary.LittleEndian
				if le.Uint16(buf[pos:]) != NodeMagic {
					// All-0xFF means the erased tail of the block. Anything
					// else is the debris of a write that tore inside the
					// header: seal the block so the write head never
					// programs over half-written flash.
					if !erasedRegion(buf[pos : pos+nodeHeader]) {
						sealed = true
					}
					break
				}
				typ := le.Uint16(buf[pos+2:])
				totLen := int(le.Uint32(buf[pos+4:]))
				version := le.Uint32(buf[pos+8:])
				crc := le.Uint32(buf[pos+12:])
				if totLen < nodeHeader || pos+totLen > es {
					// Torn header: the length field never finished
					// programming.
					sealed = true
					break
				}
				want := crc32.ChecksumIEEE(buf[pos : pos+12])
				want = crc32.Update(want, crc32.IEEETable, buf[pos+nodeHeader:pos+totLen])
				if crc != want {
					// Torn or corrupted node: like real JFFS2, the scan
					// drops the bad node and everything after it in the
					// block — the log up to this point is the consistent
					// prefix.
					sealed = true
					break
				}
				nodes = append(nodes, scanned{version: version, typ: typ, pos: blk*es + pos,
					payload: buf[pos+nodeHeader : pos+totLen]})
				pos += totLen
				if version > f.version {
					f.version = version
				}
			}
			if sealed {
				f.blockUsed[blk] = es // no appends here until GC erases it
			} else {
				f.blockUsed[blk] = pos
			}
		}
		slices.SortFunc(nodes, func(a, b scanned) int {
			if c := cmp.Compare(a.version, b.version); c != 0 {
				return c
			}
			return cmp.Compare(a.pos, b.pos)
		})
		for _, n := range nodes {
			switch n.typ {
			case nodeInode:
				f.applyInodeNode(n.payload)
			case nodeDirent:
				f.applyDirentNode(n.payload)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Position the write head at the first block with free space. With
	// none, the head starts out full, so the first append collects.
	f.curBlock, f.curOff = 0, es
	for blk, used := range f.blockUsed {
		if used < es {
			f.curBlock, f.curOff = blk, used
			break
		}
	}

	// Drop inodes with no links (fully deleted).
	for ino, nd := range f.inodes {
		if ino != RootIno && nd.nlink == 0 {
			delete(f.inodes, ino)
		}
	}
	if clock != nil {
		clock.Advance(200 * time.Microsecond) // scan/index CPU cost
	}
	return f, nil
}

// erasedRegion reports whether every byte is still in the erased (0xFF)
// state.
func erasedRegion(p []byte) bool {
	for _, b := range p {
		if b != 0xFF {
			return false
		}
	}
	return true
}

// FSType implements vfs.Typer.
func (f *FS) FSType() string { return "jffs2" }

// Unmount releases the in-memory state. The log is already durable.
func (f *FS) Unmount() error {
	if f.unmounted {
		return fmt.Errorf("jffs2sim: double unmount")
	}
	f.unmounted = true
	return nil
}

func (f *FS) now() time.Duration {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

// --- node encoding -------------------------------------------------------

// inode node payload: ino(4) mode(4) nlink(4) uid(4) gid(4) isize(8)
// mtime(8) off(8) dataLen(4) target? -> targetLen(2) target data[]
func encodeInodeNode(nd *inodeInfo, ino uint32, off int64, data []byte) []byte {
	p := make([]byte, 4+4+4+4+4+8+8+8+4+2+len(nd.target)+len(data))
	le := binary.LittleEndian
	le.PutUint32(p[0:], ino)
	le.PutUint32(p[4:], uint32(nd.mode))
	le.PutUint32(p[8:], nd.nlink)
	le.PutUint32(p[12:], nd.uid)
	le.PutUint32(p[16:], nd.gid)
	le.PutUint64(p[20:], uint64(nd.size))
	le.PutUint64(p[28:], uint64(nd.mtime))
	le.PutUint64(p[36:], uint64(off))
	le.PutUint32(p[44:], uint32(len(data)))
	le.PutUint16(p[48:], uint16(len(nd.target)))
	copy(p[50:], nd.target)
	copy(p[50+len(nd.target):], data)
	return p
}

func (f *FS) applyInodeNode(p []byte) {
	if len(p) < 50 {
		return
	}
	le := binary.LittleEndian
	ino := le.Uint32(p[0:])
	mode := vfs.Mode(le.Uint32(p[4:]))
	nlink := le.Uint32(p[8:])
	uid := le.Uint32(p[12:])
	gid := le.Uint32(p[16:])
	isize := int64(le.Uint64(p[20:]))
	mtime := time.Duration(le.Uint64(p[28:]))
	off := int64(le.Uint64(p[36:]))
	dataLen := int(le.Uint32(p[44:]))
	targetLen := int(le.Uint16(p[48:]))
	if 50+targetLen+dataLen > len(p) {
		return
	}
	target := string(p[50 : 50+targetLen])
	data := p[50+targetLen : 50+targetLen+dataLen]

	nd := f.inodes[ino]
	if nd == nil {
		nd = &inodeInfo{}
		if mode.IsDir() {
			nd.entries = make(map[string]uint32)
		}
		f.inodes[ino] = nd
	}
	nd.mode = mode
	nd.nlink = nlink
	nd.uid = uid
	nd.gid = gid
	nd.mtime = mtime
	nd.ctime = mtime
	nd.target = target
	if mode.IsDir() && nd.entries == nil {
		nd.entries = make(map[string]uint32)
	}
	// Apply the data fragment, then clamp/extend to isize. Growth
	// appends zeros (amortised over the replay of a file's nodes) and
	// copies the fragment out of the flash.
	if dataLen > 0 {
		end := off + int64(dataLen)
		if n := int64(len(nd.content)); n < end {
			nd.content = append(nd.content, make([]byte, end-n)...)
		}
		copy(nd.content[off:end], data)
	}
	if n := int64(len(nd.content)); n > isize {
		nd.content = nd.content[:isize]
	} else if n < isize {
		nd.content = append(nd.content, make([]byte, isize-n)...)
	}
	nd.size = isize
	if ino >= f.nextIno {
		f.nextIno = ino + 1
	}
}

// dirent node payload: parent(4) ino(4) nameLen(2) name; ino 0 deletes.
func encodeDirentNode(parent, ino uint32, name string) []byte {
	p := make([]byte, 10+len(name))
	le := binary.LittleEndian
	le.PutUint32(p[0:], parent)
	le.PutUint32(p[4:], ino)
	le.PutUint16(p[8:], uint16(len(name)))
	copy(p[10:], name)
	return p
}

func (f *FS) applyDirentNode(p []byte) {
	if len(p) < 10 {
		return
	}
	le := binary.LittleEndian
	parent := le.Uint32(p[0:])
	ino := le.Uint32(p[4:])
	nameLen := int(le.Uint16(p[8:]))
	if 10+nameLen > len(p) {
		return
	}
	name := string(p[10 : 10+nameLen])
	dir := f.inodes[parent]
	if dir == nil || dir.entries == nil {
		return
	}
	// dropEntry removes name from the directory, keeping the parent's
	// link count in step when the removed child is a subdirectory (its
	// ".." contributed a link).
	dropEntry := func() {
		old, ok := dir.entries[name]
		if !ok {
			return
		}
		if child := f.inodes[old]; child != nil && child.mode.IsDir() {
			dir.nlink--
		}
		delete(dir.entries, name)
		for i, n := range dir.order {
			if n == name {
				dir.order = append(dir.order[:i], dir.order[i+1:]...)
				break
			}
		}
	}
	if ino == 0 {
		dropEntry()
		return
	}
	// A dirent that overwrites an existing name (rename onto an occupied
	// target) displaces the old entry and repositions the name at the
	// end, matching the live code path.
	dropEntry()
	dir.order = append(dir.order, name)
	dir.entries[name] = ino
	if child := f.inodes[ino]; child != nil && child.mode.IsDir() {
		child.parent = parent
		dir.nlink++
	}
	if ino >= f.nextIno {
		f.nextIno = ino + 1
	}
}

// --- log appending & GC ---------------------------------------------------

// logNode is one node waiting to be appended to the log.
type logNode struct {
	typ     uint16
	payload []byte
}

// commit appends nodes to the log as one unit. When they do not fit, it
// garbage-collects first; when even the compacted log would not hold
// them, it returns ENOSPC having written and erased nothing.
func (f *FS) commit(nodes []logNode) errno.Errno {
	es := f.mtd.EraseSize()
	for _, n := range nodes {
		if nodeHeader+len(n.payload) > es {
			return errno.EFBIG
		}
	}
	free := 0
	for blk, used := range f.blockUsed {
		if used == 0 && blk != f.curBlock {
			free++
		}
	}
	if !placeable(es, f.curOff, free, nodes) {
		if e := f.gc(nodes); e != errno.OK {
			return e
		}
	}
	for _, n := range nodes {
		if e := f.writeNode(n); e != errno.OK {
			return e
		}
	}
	return errno.OK
}

// placeable reports whether nodes can be written, in order, starting at
// offset off of the current block with free untouched blocks to spill
// into. It mirrors reserve: a node that does not fit in the rest of the
// current block starts the next free block.
func placeable(es, off, free int, nodes []logNode) bool {
	for _, n := range nodes {
		size := nodeHeader + len(n.payload)
		if off+size > es {
			if free == 0 {
				return false
			}
			free--
			off = 0
		}
		off += size
	}
	return true
}

// writeNode programs one node at the write head. The caller has checked
// that it fits.
func (f *FS) writeNode(n logNode) errno.Errno {
	totLen := nodeHeader + len(n.payload)
	if !f.reserve(totLen) {
		return errno.ENOSPC
	}
	es := f.mtd.EraseSize()
	f.version++
	node := make([]byte, totLen)
	le := binary.LittleEndian
	le.PutUint16(node[0:], NodeMagic)
	le.PutUint16(node[2:], n.typ)
	le.PutUint32(node[4:], uint32(totLen))
	le.PutUint32(node[8:], f.version)
	copy(node[nodeHeader:], n.payload)
	crc := crc32.ChecksumIEEE(node[0:12])
	crc = crc32.Update(crc, crc32.IEEETable, node[nodeHeader:])
	le.PutUint32(node[12:], crc)
	if err := f.mtd.Program(node, int64(f.curBlock*es+f.curOff)); err != nil {
		return errno.EIO
	}
	f.curOff += totLen
	f.blockUsed[f.curBlock] = f.curOff
	return errno.OK
}

// reserve positions the write head at a region with room for n bytes.
func (f *FS) reserve(n int) bool {
	es := f.mtd.EraseSize()
	if f.curOff+n <= es {
		return true
	}
	// Seal the current block and find the next one with space.
	f.blockUsed[f.curBlock] = es
	for blk := 0; blk < len(f.blockUsed); blk++ {
		if f.blockUsed[blk] == 0 {
			f.curBlock, f.curOff = blk, 0
			return true
		}
	}
	return false
}

// gc compacts the entire live state into freshly erased blocks. Real
// JFFS2 collects block by block; whole-log compaction is the simplest
// policy with the same observable result and a similar (large) cost.
// It first checks that the live state and the pending nodes fit on an
// empty log: when they do not, it returns ENOSPC before erasing
// anything, so the log still holds the state it held.
func (f *FS) gc(pending []logNode) errno.Errno {
	inos := make([]uint32, 0, len(f.inodes))
	for ino := range f.inodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	var live []logNode
	for _, ino := range inos {
		nd := f.inodes[ino]
		live = appendInodeNodes(live, nd, ino, 0, nd.content)
		for _, name := range nd.order {
			live = append(live, logNode{nodeDirent, encodeDirentNode(ino, nd.entries[name], name)})
		}
	}
	all := append(live[:len(live):len(live)], pending...)
	if !placeable(f.mtd.EraseSize(), 0, len(f.blockUsed)-1, all) {
		return errno.ENOSPC
	}
	for blk := range f.blockUsed {
		if err := f.mtd.Erase(blk); err != nil {
			return errno.EIO
		}
		f.blockUsed[blk] = 0
	}
	f.curBlock, f.curOff = 0, 0
	for _, n := range live {
		if e := f.writeNode(n); e != errno.OK {
			return e
		}
	}
	return errno.OK
}

// appendInodeNodes appends the inode nodes that persist nd's metadata
// and the data fragment at off, split into MaxDataPerNode chunks (one
// metadata-only node when data is empty).
func appendInodeNodes(nodes []logNode, nd *inodeInfo, ino uint32, off int64, data []byte) []logNode {
	pos := 0
	for {
		end := min(pos+MaxDataPerNode, len(data))
		nodes = append(nodes, logNode{nodeInode, encodeInodeNode(nd, ino, off+int64(pos), data[pos:end])})
		pos = end
		if pos >= len(data) {
			return nodes
		}
	}
}

// logInode persists the current metadata (and optionally a data fragment)
// of an inode: all of its nodes, or none.
func (f *FS) logInode(ino uint32, nd *inodeInfo, off int64, data []byte) errno.Errno {
	return f.commit(appendInodeNodes(nil, nd, ino, off, data))
}

func (f *FS) logDirent(parent, ino uint32, name string) errno.Errno {
	return f.commit([]logNode{{nodeDirent, encodeDirentNode(parent, ino, name)}})
}
