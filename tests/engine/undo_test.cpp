// Collaborative undo: a compensating operation generated through the
// normal pipeline, so it converges like any edit.
#include <gtest/gtest.h>

#include "engine/session.hpp"
#include "util/check.hpp"

namespace ccvc::engine {
namespace {

StarSessionConfig undo_cfg(std::size_t n, std::string doc) {
  StarSessionConfig cfg;
  cfg.num_sites = n;
  cfg.initial_doc = std::move(doc);
  cfg.uplink = net::LatencyModel::fixed(10.0);
  cfg.downlink = net::LatencyModel::fixed(10.0);
  return cfg;
}

TEST(Undo, OwnInsertRemovedEverywhere) {
  StarSession s(undo_cfg(2, "hello"));
  const OpId op = s.client(1).insert(2, "XYZ");
  s.run_to_quiescence();
  ASSERT_EQ(s.client(2).text(), "heXYZllo");

  s.client(1).undo(op);
  EXPECT_EQ(s.client(1).text(), "hello");  // immediate locally
  s.run_to_quiescence();
  EXPECT_TRUE(s.converged());
  EXPECT_EQ(s.notifier().text(), "hello");
}

TEST(Undo, OwnDeleteRestoresText) {
  StarSession s(undo_cfg(2, "collaborate"));
  const OpId op = s.client(1).erase(2, 5);
  ASSERT_EQ(s.client(1).text(), "corate");
  s.run_to_quiescence();

  s.client(1).undo(op);
  s.run_to_quiescence();
  EXPECT_TRUE(s.converged());
  EXPECT_EQ(s.notifier().text(), "collaborate");
}

TEST(Undo, SurvivesInterveningRemoteEdits) {
  StarSession s(undo_cfg(2, "abcdef"));
  const OpId op = s.client(1).insert(3, "##");
  s.run_to_quiescence();
  // Site 2 edits around (not inside) the inserted text.
  s.client(2).insert(0, ">>");
  s.client(2).erase(7, 1);  // ">>abc##def" minus 'd' -> ">>abc##ef"
  s.run_to_quiescence();
  ASSERT_TRUE(s.converged());
  ASSERT_EQ(s.notifier().text(), ">>abc##ef");

  s.client(1).undo(op);
  s.run_to_quiescence();
  EXPECT_TRUE(s.converged());
  EXPECT_EQ(s.notifier().text(), ">>abcef");
}

TEST(Undo, PartiallyConsumedInsertUndoesWhatRemains) {
  StarSession s(undo_cfg(2, "ab"));
  const OpId op = s.client(1).insert(1, "XXXX");
  s.run_to_quiescence();
  // Site 2 deletes half of the inserted run.
  s.client(2).erase(1, 2);
  s.run_to_quiescence();
  ASSERT_TRUE(s.converged());
  ASSERT_EQ(s.notifier().text(), "aXXb");

  s.client(1).undo(op);
  s.run_to_quiescence();
  EXPECT_TRUE(s.converged());
  EXPECT_EQ(s.notifier().text(), "ab");  // the surviving half goes
}

TEST(Undo, UndoLastPicksMostRecentAndRedoWorks) {
  StarSession s(undo_cfg(1, ""));
  s.client(1).insert(0, "one ");
  s.client(1).insert(4, "two");
  s.client(1).undo_last();  // undo "two"
  EXPECT_EQ(s.client(1).text(), "one ");
  // Compensators are ordinary local operations, so the next undo_last
  // targets the youngest not-yet-undone one — i.e. it is a redo.
  s.client(1).undo_last();
  EXPECT_EQ(s.client(1).text(), "one two");
  // Explicit-target undo reaches past all of that.
  s.client(1).undo(OpId{1, 1});
  EXPECT_EQ(s.client(1).text(), "two");
  s.run_to_quiescence();
  EXPECT_TRUE(s.converged());
}

TEST(Undo, ConcurrentUndoAndEditConverge) {
  StarSession s(undo_cfg(3, "base"));
  const OpId op = s.client(1).insert(4, "!!!");
  s.run_to_quiescence();
  // Concurrently: site 1 undoes, site 2 types inside the region, site 3
  // types at the front.
  s.client(1).undo(op);
  s.client(2).insert(5, "q");
  s.client(3).insert(0, "#");
  s.run_to_quiescence();
  EXPECT_TRUE(s.converged());
  const std::string doc = s.notifier().text();
  EXPECT_NE(doc.find("base"), std::string::npos);
  EXPECT_NE(doc.find('q'), std::string::npos);  // site 2's char survives
  EXPECT_NE(doc.find('#'), std::string::npos);
  EXPECT_EQ(doc.find("!!!"), std::string::npos);  // undone
}

// gc_history drops a center entry as soon as it executes, even one that
// executed after a still-pending target; the compensator would then miss
// that op's inclusion and delete the wrong character ('b' here).  undo
// must refuse, leaving the document as it was.
TEST(Undo, RefusedWhenGcCollectedLaterHistory) {
  for (const bool gc : {false, true}) {
    SCOPED_TRACE(gc ? "gc_history on" : "gc_history off");
    StarSessionConfig cfg = undo_cfg(2, "abc");
    cfg.engine.gc_history = gc;
    StarSession s(cfg);
    s.client(2).insert(0, "YY");
    s.queue().run_until(5);
    const OpId x = s.client(1).insert(3, "X");
    s.queue().run_until(21);  // "YY" executed at site 1, x still pending
    ASSERT_EQ(s.client(1).text(), "YYabcX");
    if (gc) {
      EXPECT_THROW(s.client(1).undo(x), ContractViolation);
      EXPECT_EQ(s.client(1).text(), "YYabcX");
    } else {
      s.client(1).undo(x);
      EXPECT_EQ(s.client(1).text(), "YYabc");
    }
    s.run_to_quiescence();
    EXPECT_TRUE(s.converged());
  }
}

TEST(Undo, ForeignOpRejected) {
  StarSession s(undo_cfg(2, "x"));
  s.client(2).insert(0, "y");
  s.run_to_quiescence();
  EXPECT_THROW(s.client(1).undo(OpId{2, 1}), ContractViolation);
}

TEST(Undo, UnknownOpRejected) {
  StarSession s(undo_cfg(2, "x"));
  EXPECT_THROW(s.client(1).undo(OpId{1, 7}), ContractViolation);
  EXPECT_THROW(s.client(1).undo_last(), ContractViolation);
}

}  // namespace
}  // namespace ccvc::engine
