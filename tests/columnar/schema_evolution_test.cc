// Schema evolution: "Different row blocks may have different schemas,
// although they usually have a large overlap in their columns" (§2.1).
// Blocks sealed before and after a column appears must coexist, query
// consistently, and survive the shm handoff.

#include <gtest/gtest.h>

#include "core/restart_manager.h"
#include "core/shutdown.h"
#include "query/executor.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::ShmNamespace;

Row OldSchemaRow(int64_t time) {
  Row row;
  row.SetTime(time);
  row.Set("service", std::string("web"));
  return row;
}

Row NewSchemaRow(int64_t time) {
  Row row = OldSchemaRow(time);
  row.Set("region", std::string("eu"));        // column added in v2
  row.Set("duration_us", static_cast<int64_t>(1500));
  return row;
}

// A table whose first block predates the "region"/"duration_us" columns.
void FillEvolvedTable(Table* table) {
  std::vector<Row> old_rows;
  for (int i = 0; i < 100; ++i) old_rows.push_back(OldSchemaRow(100 + i));
  ASSERT_TRUE(table->AddRows(old_rows, 0).ok());
  ASSERT_TRUE(table->SealWriteBuffer(0).ok());

  std::vector<Row> new_rows;
  for (int i = 0; i < 50; ++i) new_rows.push_back(NewSchemaRow(300 + i));
  ASSERT_TRUE(table->AddRows(new_rows, 0).ok());
  ASSERT_TRUE(table->SealWriteBuffer(0).ok());
}

TEST(SchemaEvolutionTest, BlocksKeepTheirOwnSchemas) {
  Table table("events");
  FillEvolvedTable(&table);
  ASSERT_EQ(table.num_row_blocks(), 2u);
  EXPECT_FALSE(table.row_block(0)->schema().FindColumn("region").has_value());
  EXPECT_TRUE(table.row_block(1)->schema().FindColumn("region").has_value());
}

TEST(SchemaEvolutionTest, QueriesSpanOldAndNewBlocks) {
  Table table("events");
  FillEvolvedTable(&table);

  // Group by the new column: old rows land in the default ("") group.
  Query q;
  q.table = "events";
  q.group_by = {"region"};
  q.aggregates = {Count(), Sum("duration_us")};
  auto result = LeafExecutor::Execute(table, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto out = result->Finalize(q.aggregates);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<std::string>(out[0].group_key[0]), "");
  EXPECT_EQ(out[0].aggregates[0], 100.0);
  EXPECT_EQ(out[0].aggregates[1], 0.0);  // defaults contribute 0
  EXPECT_EQ(std::get<std::string>(out[1].group_key[0]), "eu");
  EXPECT_EQ(out[1].aggregates[0], 50.0);
  EXPECT_EQ(out[1].aggregates[1], 50.0 * 1500);
}

TEST(SchemaEvolutionTest, PredicateOnNewColumnSelectsDefaultsFromOldBlocks) {
  Table table("events");
  FillEvolvedTable(&table);
  Query q;
  q.table = "events";
  q.predicates = {{"region", CompareOp::kEq, Value(std::string(""))}};
  q.aggregates = {Count()};
  auto result = LeafExecutor::Execute(table, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Finalize(q.aggregates)[0].aggregates[0], 100.0);
}

TEST(SchemaEvolutionTest, MixedSchemasSurviveShmHandoff) {
  ShmNamespace ns("evo1");
  LeafMap leaf_map;
  FillEvolvedTable(leaf_map.GetOrCreateTable("events"));

  ShutdownOptions soptions;
  soptions.namespace_prefix = ns.prefix();
  ShutdownStats sstats;
  ASSERT_TRUE(ShutdownToShm(&leaf_map, soptions, &sstats).ok());

  LeafMap restored;
  RestartConfig roptions;
  roptions.namespace_prefix = ns.prefix();
  RestoreStats rstats;
  ASSERT_TRUE(RestoreFromShm(&restored, roptions, &rstats).ok());

  Table* table = restored.GetTable("events");
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->num_row_blocks(), 2u);
  EXPECT_FALSE(
      table->row_block(0)->schema().FindColumn("region").has_value());
  EXPECT_TRUE(
      table->row_block(1)->schema().FindColumn("region").has_value());

  Query q;
  q.table = "events";
  q.group_by = {"region"};
  q.aggregates = {Count()};
  auto result = LeafExecutor::Execute(*table, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 2u);
}

TEST(SchemaEvolutionTest, TypeConflictAcrossBlocksIsRejectedAtQueryTime) {
  // A column that changed TYPE across blocks (int in one, string in
  // another) cannot be queried coherently; the executor must refuse
  // rather than coerce.
  Table table("events");
  {
    Row row;
    row.SetTime(1);
    row.Set("code", int64_t{200});
    ASSERT_TRUE(table.AddRows({row}, 0).ok());
    ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  }
  {
    Row row;
    row.SetTime(2);
    row.Set("code", std::string("OK"));
    ASSERT_TRUE(table.AddRows({row}, 0).ok());
    ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  }
  Query q;
  q.table = "events";
  q.group_by = {"code"};
  q.aggregates = {Count()};
  EXPECT_TRUE(LeafExecutor::Execute(table, q).status().IsInvalidArgument());
}

}  // namespace
}  // namespace scuba
