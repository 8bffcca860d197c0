// Good-tree fixture, engine half: a plain mutable global outside
// src/runtime/.  Its one writer is reached from the transform closure
// alone (NotifierPipeline::transform_loop), so the single-writer audit,
// which covers globals in all of src/, must accept it.
namespace fx {

int g_ops_applied = 0;

void apply_op(int item) { g_ops_applied += item; }

}  // namespace fx
