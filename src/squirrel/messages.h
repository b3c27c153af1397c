#ifndef FLOWERCDN_SQUIRREL_MESSAGES_H_
#define FLOWERCDN_SQUIRREL_MESSAGES_H_

#include <vector>

#include "sim/message.h"
#include "storage/object_id.h"

namespace flowercdn {

/// Wire messages of the Squirrel baseline (Iyer, Rowstron, Druschel,
/// PODC'02 — the "directory" scheme the paper compares against).
enum SquirrelMessageType : MessageType {
  kSquirrelQuery = kSquirrelMessageBase + 0,
  kSquirrelQueryReply = kSquirrelMessageBase + 1,
  kSquirrelFetch = kSquirrelMessageBase + 2,
  kSquirrelFetchReply = kSquirrelMessageBase + 3,
  kSquirrelUpdate = kSquirrelMessageBase + 4,
  kSquirrelHandoff = kSquirrelMessageBase + 5,
};

inline bool IsSquirrelMessage(MessageType t) {
  return t >= kSquirrelMessageBase && t < kSquirrelMessageBase + 100;
}

/// Client -> home node. Directory mode: "who recently downloaded this
/// object?" Home-store mode: "serve me your stored copy."
struct SquirrelQueryMsg : WireMessage<SquirrelQueryMsg> {
  SquirrelQueryMsg() { type = kSquirrelQuery; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Packed(m.object);
  }
  ObjectId object;
};

/// Home node's answer. Directory mode: a random recent downloader, or
/// none. Home-store mode: `served_directly` when the home itself holds a
/// replica and ships it.
struct SquirrelQueryReplyMsg : WireMessage<SquirrelQueryReplyMsg> {
  SquirrelQueryReplyMsg() { type = kSquirrelQueryReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.has_delegate);
    v.U64(m.delegate);
    v.Bool(m.served_directly);
  }
  bool has_delegate = false;
  PeerId delegate = kInvalidPeer;
  bool served_directly = false;
};

/// Client -> delegate: "serve me the object."
struct SquirrelFetchMsg : WireMessage<SquirrelFetchMsg> {
  SquirrelFetchMsg() { type = kSquirrelFetch; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Packed(m.object);
  }
  ObjectId object;
};

struct SquirrelFetchReplyMsg : WireMessage<SquirrelFetchReplyMsg> {
  SquirrelFetchReplyMsg() { type = kSquirrelFetchReply; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Bool(m.has_object);
  }
  bool has_object = false;
};

/// Client -> home node (one-way): "I now hold a copy; add me to the
/// object's directory."
struct SquirrelUpdateMsg : WireMessage<SquirrelUpdateMsg> {
  SquirrelUpdateMsg() { type = kSquirrelUpdate; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.Packed(m.object);
  }
  ObjectId object;
};

/// Old home -> new home (one-way): directory entries whose keys moved to a
/// freshly joined predecessor (Chord key transfer on join). Failures still
/// lose the directory outright — the weakness the paper exposes.
struct SquirrelHandoffMsg : WireMessage<SquirrelHandoffMsg> {
  SquirrelHandoffMsg() { type = kSquirrelHandoff; }
  template <typename V, typename M>
  static void Walk(V& v, M& m) {
    v.List(m.entries, [](auto& v, auto& e) {
      v.Packed(e.object);
      v.Bool(e.stored_copy);
      v.List(e.delegates, kU64Walk);
    });
  }
  struct Entry {
    ObjectId object;
    std::vector<PeerId> delegates;  // newest first (directory mode)
    bool stored_copy = false;       // home-store mode replica moves too
  };
  std::vector<Entry> entries;
};

}  // namespace flowercdn

#endif  // FLOWERCDN_SQUIRREL_MESSAGES_H_
