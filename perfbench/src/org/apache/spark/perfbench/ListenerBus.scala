package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Access to the listener bus, which Spark keeps package-private. */
object ListenerBus {

  /** Block until every posted event has reached every listener. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
