// The message envelope every transport carries.
#pragma once

#include <string>

#include "msg/payloads.hpp"

namespace snowkit {

/// Envelope: a payload stamped with the transaction it belongs to.  The txn
/// id lets the SNOW monitors attribute traffic to transactions and lets
/// adversarial schedulers target specific operations.
struct Message {
  TxnId txn{kInvalidTxn};
  Payload payload;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Stable human-readable payload-type name (used in traces and demos).
const char* payload_name(const Payload& p);

/// True if this payload is a client->server request that starts a server-side
/// read step of a READ transaction (used by the non-blocking monitor).
bool is_read_request(const Payload& p);

/// True if this payload is a server->client response carrying object
/// versions.
bool is_read_response(const Payload& p);
/// The versions a read response carries per object, the unit of the O
/// property and of the paper's version bounds: a batched response counts its
/// largest per-object list (1 for read-val-batch-resp), not the sum over its
/// objects.  0 for every other payload.
int version_count(const Payload& p);

/// The entry for `obj` in a tag array's ascending `entries`.  The
/// coordinator answers every object a reader names, so a missing entry is a
/// protocol bug and aborts.
const TagArrEntry& tag_entry(const std::vector<TagArrEntry>& entries, ObjectId obj);

std::string describe(const Message& m);

}  // namespace snowkit
