package repro.util

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import scala.reflect.ClassTag
import scala.reflect.runtime.universe.TypeTag

/** The one way work over sample (or candidate) ids `0 until count` runs,
  * and the one place that chooses the executor. A reduce runs ids `0, 1,
  * 2, …` on the driver until the time it has spent exceeds the cost of
  * one Spark job, then fans the remaining ids out over a
  * `spark.range(k, count)` Dataset and merges that with the driver's
  * partial result (ski rental: within 2× of the better executor without
  * knowing the work in advance). The shared value `B` (a graph) is
  * broadcast the first time work goes to Spark and destroyed when the
  * fan-out's body returns. Every id's work is a pure function of the id,
  * so any split gives the same result whenever `merge` is associative and
  * commutative on the partial results.
  */
final class FanOut[B: ClassTag] private (spark: SparkSession, value: B, auto: Boolean) {
  private[this] var bc: Broadcast[B] = null

  /** `merge` of `part(value, ids)` over a split of `0 until count`
    * (`count ≥ 1`): one driver call over a prefix of the ids, and one call
    * per non-empty partition of the rest on Spark, collected and merged.
    * `part` must consume every id it is given.
    */
  def reduce[R: TypeTag](count: Long)(part: (B, Iterator[Long]) => R)(merge: (R, R) => R): R = {
    require(count >= 1, "count must be positive")
    val ids =
      if (spark == null) new FanOut.DriverIds(count, Long.MaxValue)
      else if (!auto) new FanOut.DriverIds(0L, Long.MaxValue)
      else FanOut.split match {
        case null => new FanOut.DriverIds(count, FanOut.sparkJobNanos)
        case at => new FanOut.DriverIds(math.max(0L, math.min(at(count), count)), Long.MaxValue)
      }
    val onDriver = if (ids.hasNext) Some(part(value, ids)) else None
    if (spark == null || ids.taken == count) onDriver.get
    else {
      val rest = onSpark(ids.taken, count, part, merge)
      onDriver.fold(rest)(merge(_, rest))
    }
  }

  /** `merge` of `part` over the non-empty partitions of `spark.range(from,
    * until)`; records the job's wall time beyond its slowest partition.
    */
  private def onSpark[R: TypeTag](from: Long, until: Long, part: (B, Iterator[Long]) => R, merge: (R, R) => R): R = {
    if (bc == null) bc = spark.sparkContext.broadcast(value)
    val shared = bc
    implicit val enc: Encoder[(R, Long)] = ExpressionEncoder[(R, Long)]()
    val start = System.nanoTime()
    val parts = spark
      .range(from, until)
      .as(Encoders.scalaLong)
      .mapPartitions { ids =>
        if (!ids.hasNext) Iterator.empty
        else {
          val t = System.nanoTime()
          val r = part(shared.value, ids)
          Iterator.single((r, System.nanoTime() - t))
        }
      }
      .collect()
    FanOut.recordJob(System.nanoTime() - start - parts.iterator.map(_._2).max)
    parts.iterator.map(_._1).reduce(merge)
  }

  private def close(): Unit = if (bc != null) bc.destroy()
}

object FanOut {

  /** Run `body` with a fan-out of `value` that picks the executor per
    * reduce; `value` is broadcast only if some work goes to Spark.
    */
  def apply[B: ClassTag, T](spark: SparkSession, value: B)(body: FanOut[B] => T): T =
    using(new FanOut(spark, value, auto = true))(body)

  /** Run `body` with a fan-out that sends every id to Spark (`value`
    * broadcast on the first reduce).
    */
  def sparkOnly[B: ClassTag, T](spark: SparkSession, value: B)(body: FanOut[B] => T): T =
    using(new FanOut(spark, value, auto = false))(body)

  /** A fan-out that runs every id in the calling JVM. */
  def local[B: ClassTag](value: B): FanOut[B] = new FanOut(null, value, auto = false)

  private def using[B, T](fan: FanOut[B])(body: FanOut[B] => T): T =
    try body(fan)
    finally fan.close()

  /** Cost of one Spark job before any was measured: the smallest fan-out
    * job (θ = 1 Δ estimate) measured on a 4-core `local[4]` driver.
    */
  private val FirstJobNanos = 29000000L

  /** The cheapest fixed cost (wall time beyond the slowest partition's
    * work) of a Spark job any fan-out in this JVM has run, not counting
    * the first: that one also pays Spark's one-time start-up (class
    * loading, code generation: 3.6 s against 0.13–0.28 s for the later
    * jobs of a BG run on 4 cores), and counting it would keep every later
    * reduce on the driver.
    */
  @volatile private var fastestJob = Long.MaxValue
  private var jobsRun = 0

  private[util] def sparkJobNanos: Long = if (fastestJob == Long.MaxValue) FirstJobNanos else fastestJob

  private def recordJob(nanos: Long): Unit = synchronized {
    if (jobsRun > 0) fastestJob = math.min(fastestJob, math.max(nanos, 0L))
    jobsRun += 1
  }

  /** For tests: when set, an automatic reduce over `count` ids runs the
    * first `split(count)` on the driver and the rest on Spark.
    */
  @volatile private var split: Long => Long = null

  /** Run `body` with every automatic reduce split at `at(count)` ids
    * (`_ => 0` forces Spark, `identity` the driver).
    */
  private[repro] def splitAt[T](at: Long => Long)(body: => T): T = {
    val outer = split
    split = at
    try body
    finally split = outer
  }

  /** Ids `0 until limit`, counted in a `Long`, cut short once more than
    * `budgetNanos` have passed since the iterator was made; `taken` ids
    * were handed out. The first id is always handed out when `limit ≥ 1`,
    * and an id `hasNext` promised is handed out however late `next` comes.
    */
  private final class DriverIds(limit: Long, budgetNanos: Long) extends Iterator[Long] {
    private[this] val start = System.nanoTime()
    private[this] var open = true
    var taken = 0L

    def hasNext: Boolean = {
      if (open) open = taken < limit && (taken == 0L || System.nanoTime() - start <= budgetNanos)
      open
    }

    def next(): Long = {
      if (!open || taken >= limit) throw new NoSuchElementException("no more driver ids")
      taken += 1
      taken - 1
    }
  }
}
