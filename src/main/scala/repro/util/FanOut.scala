package repro.util

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import scala.reflect.ClassTag
import scala.reflect.runtime.universe.TypeTag

/** The one way work over sample (or candidate) ids `0 until count` runs:
  * in the calling JVM, or fanned out over a `spark.range(count)` Dataset with
  * the shared value `B` (a graph) broadcast once for the whole fan-out's
  * life. Every id's work is a pure function of the id, so both give the
  * same result whenever `merge` is associative and commutative on the
  * partial results.
  */
final class FanOut[B] private (spark: SparkSession, value: B, bc: Broadcast[B]) {

  /** `merge` of `part(value, ids)` over a split of `0 until count`
    * (`count ≥ 1`): one local call over every id, or one call per
    * non-empty partition of `spark.range(count)`, collected and merged.
    */
  def reduce[R: TypeTag](count: Long)(part: (B, Iterator[Long]) => R)(merge: (R, R) => R): R = {
    require(count >= 1, "count must be positive")
    if (bc == null) part(value, (0L until count).iterator)
    else {
      val shared = bc
      implicit val enc: Encoder[R] = ExpressionEncoder[R]()
      spark
        .range(count)
        .as(Encoders.scalaLong)
        .mapPartitions(ids => if (ids.hasNext) Iterator.single(part(shared.value, ids)) else Iterator.empty)
        .collect()
        .reduce(merge)
    }
  }
}

object FanOut {

  /** Run `body` with a fan-out of `value`: on Spark when `distributed`
    * (`value` broadcast once and destroyed when `body` returns), otherwise
    * locally.
    */
  def apply[B: ClassTag, T](spark: SparkSession, value: B, distributed: Boolean)(body: FanOut[B] => T): T =
    if (!distributed) body(local(value))
    else {
      val bc = spark.sparkContext.broadcast(value)
      try body(new FanOut(spark, value, bc))
      finally bc.destroy()
    }

  /** A fan-out that runs in the calling JVM. */
  def local[B](value: B): FanOut[B] = new FanOut(null, value, null)
}
