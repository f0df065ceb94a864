#ifndef SKEENA_MEMDB_MEM_TABLE_H_
#define SKEENA_MEMDB_MEM_TABLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/encoding.h"
#include "common/spin_latch.h"
#include "common/types.h"
#include "index/btree.h"

namespace skeena::memdb {

/// One committed (or being-installed) row version. Versions form a singly
/// linked list ordered newest-first by commit timestamp — the totally
/// ordered version sequence of the paper's database model (Section 2.2).
/// Deletes append a tombstone ("invalid") version.
struct Version {
  Timestamp cts;
  Version* next;
  bool tombstone;
  std::string value;
};

/// Per-key container. `latch` is held only while a committer installs the
/// key's new version (a handful of instructions); readers whose snapshot
/// might cover an in-flight commit spin on it, which is what makes a
/// snapshot read (`clock.load()`) linearizable against commits (`clock`
/// fetch-add happens after the latch is taken).
struct Record {
  SpinLatch latch;
  std::atomic<Version*> head{nullptr};
};

/// A memdb table: a B+-tree index from key to Record. Records are never
/// physically removed during a table's lifetime (deletion is a tombstone
/// version); obsolete versions are pruned once no active transaction can
/// see them.
class MemTable {
 public:
  MemTable(TableId id, std::string name)
      : id_(id), name_(std::move(name)) {}
  ~MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  BTree& index() { return index_; }
  const BTree& index() const { return index_; }

  /// Finds the record for `key`, or nullptr.
  Record* Find(const Key& key) const;

  /// Finds or atomically creates an (empty) record for `key`. An empty
  /// record (head == nullptr) is invisible to all readers.
  Record* FindOrCreate(const Key& key);

 private:
  const TableId id_;
  const std::string name_;
  BTree index_;

  // Ownership of records, for destruction.
  SpinLatch alloc_latch_;
  std::vector<std::unique_ptr<Record>> records_;
};

}  // namespace skeena::memdb

#endif  // SKEENA_MEMDB_MEM_TABLE_H_
