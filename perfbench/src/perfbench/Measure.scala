package perfbench

import java.lang.management.ManagementFactory

/** Bytes allocated by JVM threads, from `com.sun.management.ThreadMXBean`. */
object Alloc {
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  mx.setThreadAllocatedMemoryEnabled(true)

  /** Allocated bytes of every live thread, by thread id. */
  def snapshot(): Map[Long, Long] = {
    val ids = mx.getAllThreadIds
    ids.zip(mx.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes allocated across all threads since `before`. A thread that ended
    * in between is not counted; one that started counts from zero.
    */
  def since(before: Map[Long, Long]): Long =
    snapshot().iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum

  /** Bytes allocated so far by the calling thread. */
  def current(): Long = mx.getCurrentThreadAllocatedBytes
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Run `body`, returning its result and wall seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}

/** Just enough JSON output for the result line. */
object Json {
  def str(s: String): String =
    s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString

  def value(v: Any): String = v match {
    case null => "null"
    case s: String => str(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => num(d)
    case m: Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x })
    case xs: Seq[_] => xs.map(value).mkString("[", ", ", "]")
    case other => str(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
}
