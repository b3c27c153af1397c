#include "wire/sample_messages.h"

#include <memory>
#include <utility>

#include "chord/messages.h"
#include "flower/messages.h"
#include "gossip/cyclon.h"
#include "squirrel/messages.h"
#include "util/bloom_filter.h"

namespace flowercdn {
namespace {

// Every sample shares the same routing header so the golden vectors also
// pin the header layout once per type.
template <typename T>
std::unique_ptr<T> Stamp(bool is_response) {
  auto msg = std::make_unique<T>();
  msg->src = 0x1122334455667788ULL;
  msg->dst = 0x99aabbccddeeff00ULL;
  msg->rpc_id = 0xdeadbeefcafef00dULL;
  msg->is_response = is_response;
  return msg;
}

std::vector<Contact> SampleContacts() {
  return {{101, 0}, {202, 3}, {303, 7}};
}

BloomFilter SampleBloom() {
  BloomFilter f(64, 0.05);
  f.Insert(ObjectId{1, 10}.Packed());
  f.Insert(ObjectId{1, 20}.Packed());
  f.Insert(ObjectId{2, 5}.Packed());
  return f;
}

}  // namespace

std::vector<MessagePtr> BuildSampleMessages() {
  std::vector<MessagePtr> msgs;

  msgs.push_back(Stamp<TransportNackMsg>(true));
  msgs.push_back(Stamp<RpcRefusedMsg>(true));

  {
    auto m = Stamp<ChordFindSuccessorMsg>(false);
    m->key = 0x0123456789abcdefULL;
    m->origin = 42;
    m->lookup_id = 777;
    m->hops = 5;
    msgs.push_back(std::move(m));
  }
  msgs.push_back(Stamp<ChordForwardAckMsg>(true));
  {
    auto m = Stamp<ChordLookupResultMsg>(true);
    m->lookup_id = 777;
    m->owner = RingPeer{42, 0xfedcba9876543210ULL};
    m->hops = 6;
    msgs.push_back(std::move(m));
  }
  msgs.push_back(Stamp<ChordGetNeighborsMsg>(false));
  {
    auto m = Stamp<ChordNeighborsReplyMsg>(true);
    m->has_predecessor = true;
    m->predecessor = RingPeer{7, 0x0706050403020100ULL};
    m->successors = {{8, 0x1111111111111111ULL}, {9, 0x2222222222222222ULL}};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<ChordNotifyMsg>(false);
    m->notifier_id = 0x3333333333333333ULL;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<ChordNotifyReplyMsg>(true);
    m->duplicate_id = false;
    m->has_predecessor = true;
    m->predecessor = RingPeer{11, 0x4444444444444444ULL};
    msgs.push_back(std::move(m));
  }
  msgs.push_back(Stamp<ChordGetFingersMsg>(false));
  {
    auto m = Stamp<ChordFingersReplyMsg>(true);
    m->fingers = {{21, 0x5555555555555555ULL},
                  {22, 0x6666666666666666ULL},
                  {23, 0x7777777777777777ULL}};
    msgs.push_back(std::move(m));
  }
  msgs.push_back(Stamp<ChordPingMsg>(false));
  msgs.push_back(Stamp<ChordPongMsg>(true));
  {
    auto m = Stamp<ChordLeaveMsg>(false);
    m->has_predecessor = true;
    m->predecessor = RingPeer{31, 0x8888888888888888ULL};
    m->successors = {{32, 0x9999999999999999ULL}};
    msgs.push_back(std::move(m));
  }

  {
    auto m = Stamp<GossipShuffleMsg>(false);
    m->contacts = SampleContacts();
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<GossipShuffleReplyMsg>(true);
    m->contacts = {{404, 1}};
    msgs.push_back(std::move(m));
  }

  {
    auto m = Stamp<FlowerDirQueryMsg>(false);
    m->website = 3;
    m->locality = 2;
    m->has_object = true;
    m->object = ObjectId{3, 17};
    m->wants_join = true;
    m->scan_hops = 1;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerDirQueryReplyMsg>(true);
    m->result = DirQueryResult::kProvider;
    m->provider = 55;
    m->forward_to = kInvalidPeer;
    m->admitted = true;
    m->instance = 0;
    m->view_seed = SampleContacts();
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerFetchMsg>(false);
    m->object = ObjectId{3, 17};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerFetchReplyMsg>(true);
    m->has_object = true;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerGossipMsg>(false);
    m->contacts = SampleContacts();
    m->summary = SampleBloom();
    m->dir_info = DirInfo{66, 1, 4};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerGossipReplyMsg>(true);
    m->contacts = {{505, 2}};
    m->summary = SampleBloom();
    m->dir_info = DirInfo{66, 1, 2};
    msgs.push_back(std::move(m));
  }
  msgs.push_back(Stamp<FlowerKeepaliveMsg>(false));
  {
    auto m = Stamp<FlowerKeepaliveReplyMsg>(true);
    m->accepted = true;
    m->instance = 2;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerPushMsg>(false);
    m->objects = {ObjectId{3, 1}, ObjectId{3, 2}, ObjectId{4, 9}};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerPushReplyMsg>(true);
    m->accepted = true;
    m->instance = 1;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerPromoteMsg>(false);
    m->website = 3;
    m->locality = 2;
    m->new_instance = 1;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerDirHandoffMsg>(false);
    m->website = 3;
    m->locality = 2;
    m->instance = 0;
    m->view = SampleContacts();
    m->index.peers = {{101, {ObjectId{3, 1}, ObjectId{3, 5}}},
                      {202, {ObjectId{3, 2}}}};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerDirProbeMsg>(false);
    m->object = ObjectId{3, 17};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerDirProbeReplyMsg>(true);
    m->has_provider = true;
    m->provider = 88;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerForwardedQueryMsg>(false);
    m->object = ObjectId{3, 17};
    m->admitted = true;
    m->instance = 0;
    m->view_seed = {{606, 5}};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerKeywordQueryMsg>(false);
    m->website = 3;
    m->keyword = 1234;
    m->max_results = 16;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerKeywordReplyMsg>(true);
    m->accepted = true;
    m->matches = {{ObjectId{3, 4}, 101}, {ObjectId{3, 8}, 202}};
    msgs.push_back(std::move(m));
  }
  {
    // One sample exercises both forms: the snapshot fields (full) and the
    // delta op list (every op kind).
    auto m = Stamp<FlowerReplicaSyncMsg>(false);
    m->website = 3;
    m->locality = 2;
    m->instance = 0;
    m->rank = 2;
    m->full = true;
    m->base_version = 41;
    m->version = 44;
    m->view = SampleContacts();
    m->index.peers = {{101, {ObjectId{3, 1}, ObjectId{3, 5}}},
                      {202, {ObjectId{3, 2}}}};
    FlowerReplicaSyncMsg::Op replace;
    replace.kind = FlowerReplicaSyncMsg::kReplaceObjects;
    replace.peer = 101;
    replace.objects = {ObjectId{3, 1}, ObjectId{3, 9}};
    FlowerReplicaSyncMsg::Op add;
    add.kind = FlowerReplicaSyncMsg::kAddObject;
    add.peer = 202;
    add.objects = {ObjectId{3, 7}};
    FlowerReplicaSyncMsg::Op remove;
    remove.kind = FlowerReplicaSyncMsg::kRemovePeer;
    remove.peer = 303;
    m->ops = {std::move(replace), std::move(add), std::move(remove)};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<FlowerReplicaSyncReplyMsg>(true);
    m->accepted = true;
    m->acked_version = 44;
    msgs.push_back(std::move(m));
  }

  {
    auto m = Stamp<SquirrelQueryMsg>(false);
    m->object = ObjectId{5, 99};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<SquirrelQueryReplyMsg>(true);
    m->has_delegate = true;
    m->delegate = 77;
    m->served_directly = false;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<SquirrelFetchMsg>(false);
    m->object = ObjectId{5, 99};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<SquirrelFetchReplyMsg>(true);
    m->has_object = true;
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<SquirrelUpdateMsg>(false);
    m->object = ObjectId{5, 99};
    msgs.push_back(std::move(m));
  }
  {
    auto m = Stamp<SquirrelHandoffMsg>(false);
    SquirrelHandoffMsg::Entry e1;
    e1.object = ObjectId{5, 99};
    e1.delegates = {77, 78};
    e1.stored_copy = true;
    SquirrelHandoffMsg::Entry e2;
    e2.object = ObjectId{6, 1};
    e2.stored_copy = false;
    m->entries = {std::move(e1), std::move(e2)};
    msgs.push_back(std::move(m));
  }

  return msgs;
}

}  // namespace flowercdn
